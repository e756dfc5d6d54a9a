//! What every workload shares: the run plan, the seeded generator, and
//! the episodes a run is made of.
//!
//! A run is a sequence of **episodes**, each in a child process of its
//! own. An episode sets up a fresh world, runs a fixed number of
//! transactions on it, stops it, checks its outputs against the model
//! and prints what it measured; the parent starts episodes until the
//! run's seconds are used up and pools their figures. So every episode
//! does the same work from the same starting state: a faster program
//! runs more episodes, not longer ones, and state that builds up inside
//! a world, or in a process that has hosted one, costs every program
//! alike. Every episode adds one set-up time to `setup_s`.

use crate::layers::{self, Probes, Reg, Traced};
use crate::probe::{self, SpanSummary};
use crate::stats::{median, percentile_us, ratio, Failures, Metrics};
use reach_common::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Episodes every run makes, however short its seconds: a traced run
/// needs one untraced and one traced episode.
const MIN_EPISODES: usize = 2;
/// Mismatch messages kept per run (all are counted).
const MAX_REPORTED: usize = 20;

/// The flush policy shared by every file-backed workload.
pub const GROUP_COMMIT: bool = true;
pub const GROUP_WINDOW: Duration = Duration::from_micros(100);

/// One run, as given on the command line.
pub struct Plan {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Run every episode on one CPU, the last this process may use.
    pub one_cpu: bool,
    /// Scratch directory for this run's databases.
    pub dir: PathBuf,
}

impl Plan {
    /// Whether episode `k` is traced. A traced run alternates untraced
    /// and traced episodes, so the two kinds see the same host
    /// conditions and their difference prices the tracing.
    pub fn traced(&self, k: usize) -> bool {
        self.trace && k % 2 == 1
    }

    /// The database directory of episode `k`.
    pub fn db_dir(&self, k: usize) -> PathBuf {
        self.dir.join(format!("db-{k}"))
    }

    /// Where a traced episode writes its spans.
    pub fn trace_file(&self) -> PathBuf {
        self.dir
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("trace-{}.csv", self.workload))
    }
}

/// SplitMix64: a small, seedable, well-mixed generator.
pub struct Rng(u64);

impl Rng {
    /// Generator `stream` of episode `episode` of the run seeded with
    /// `seed`: the same three numbers always give the same sequence.
    pub fn new(seed: u64, episode: usize, stream: u64) -> Rng {
        let key = ((episode as u64) << 8) | stream;
        let mut r = Rng(seed ^ key.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The load of one episode (or one thread's share of it).
pub struct Phase {
    pub start: Instant,
    pub secs: f64,
    /// Latency of every committed transaction, ns.
    pub txns: Vec<u64>,
    /// Latency of every read-only transaction, ns.
    pub reads: Vec<u64>,
    pub failures: Failures,
}

impl Phase {
    pub fn new(start: Instant) -> Phase {
        Phase {
            start,
            secs: 0.0,
            txns: Vec::new(),
            reads: Vec::new(),
            failures: Failures::default(),
        }
    }

    /// Record a committed transaction that started at `t0` and was
    /// acknowledged at `end`.
    pub fn commit(&mut self, t0: Instant, end: Instant) {
        self.txns.push((end - t0).as_nanos() as u64);
    }

    /// Record a read-only transaction.
    pub fn read(&mut self, t0: Instant, end: Instant) {
        self.reads.push((end - t0).as_nanos() as u64);
    }

    /// Close the phase: its length is the time since `start`.
    pub fn finish(&mut self) {
        self.secs = self.start.elapsed().as_secs_f64();
    }

    /// Fold in another thread's share of the same episode.
    pub fn merge(&mut self, other: Phase) {
        self.secs = self.secs.max(other.secs);
        self.txns.extend(other.txns);
        self.reads.extend(other.reads);
        self.failures.merge(&other.failures);
    }
}

/// How a workload makes, loads and checks one episode's world.
pub trait Workload {
    type World;

    /// Set up the world of episode `k`; this is what `setup_s` times.
    fn set_up(&mut self, k: usize) -> Result<Self::World, String>;

    /// The registries whose counters the per-layer metrics read.
    fn registries(&self, w: &Self::World) -> Vec<Arc<MetricsRegistry>>;

    /// Run episode `k`'s fixed load on `w` and wait until the system is
    /// quiescent.
    fn load(&mut self, w: &mut Self::World, k: usize) -> Result<Phase, String>;

    /// Stop the world and check its outputs against the model.
    fn close(&mut self, w: Self::World, ep: &mut Episode, k: usize) -> Result<(), String>;

    /// The probes the workload installed (read after a traced load).
    fn probes(&self) -> Probes<'_>;
}

/// What one episode measured and checked. The child process that ran
/// it prints it with [`Episode::to_text`]; the parent reads it back.
#[derive(Default)]
pub struct Episode {
    pub traced: bool,
    pub setup_s: f64,
    /// Length of the load (s).
    pub secs: f64,
    /// Latencies of committed and of read-only transactions, ns.
    pub txns: Vec<u64>,
    pub reads: Vec<u64>,
    pub failures: Failures,
    /// Output checks that failed; empty means the episode is correct.
    pub mismatches: Vec<String>,
    /// The workload's settings (`name`, `value`).
    pub settings: Vec<(String, String)>,
    /// Time to reopen the shut-down directory (durable workloads).
    pub reopen_s: Option<f64>,
    /// Alarm lags, µs (monitoring workloads).
    pub lags: Option<Vec<f64>>,
    /// Per-layer metrics (traced episodes).
    pub layers: Metrics,
    pub peak_rss_mb: f64,
    pub spans: u64,
    pub spans_dropped: u64,
}

fn words<T: ToString>(v: &[T]) -> String {
    v.iter().map(|x| format!(" {}", x.to_string())).collect()
}

impl Episode {
    pub fn setting(&mut self, name: &str, value: impl ToString) {
        self.settings.push((name.to_string(), value.to_string()));
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.mismatches
                .push(format!("{what}: got {got:?}, model says {want:?}"));
        }
    }

    pub fn put_flush_policy(&mut self, checkpoint_bytes: Option<u64>) {
        self.setting("group_commit", GROUP_COMMIT);
        self.setting("group_window_us", GROUP_WINDOW.as_micros());
        self.setting(
            "checkpoint_bytes",
            checkpoint_bytes.map_or("off".to_string(), |b| b.to_string()),
        );
    }

    /// Reopen a shut-down database with `open`, timed as `reopen_s`.
    pub fn reopen<T>(
        &mut self,
        open: impl FnOnce() -> reach_common::Result<T>,
    ) -> Result<T, String> {
        let t0 = Instant::now();
        let db = ctx("reopen", open())?;
        self.reopen_s = Some(t0.elapsed().as_secs_f64());
        Ok(db)
    }

    /// One `tag values` line per field; values never hold a newline.
    pub fn to_text(&self) -> String {
        let mut lines = vec![
            format!("traced {}", u8::from(self.traced)),
            format!("setup_s {}", self.setup_s),
            format!("secs {}", self.secs),
            format!("txns{}", words(&self.txns)),
            format!("reads{}", words(&self.reads)),
            format!("peak_rss_mb {}", self.peak_rss_mb),
            format!("spans {} {}", self.spans, self.spans_dropped),
        ];
        lines.extend(self.failures.lines());
        lines.extend(
            self.mismatches
                .iter()
                .map(|m| format!("mismatch {}", m.replace('\n', " "))),
        );
        lines.extend(
            self.settings
                .iter()
                .map(|(k, v)| format!("setting {k} {v}")),
        );
        if let Some(s) = self.reopen_s {
            lines.push(format!("reopen_s {s}"));
        }
        if let Some(l) = &self.lags {
            lines.push(format!("lags{}", words(l)));
        }
        lines.extend(
            self.layers
                .iter()
                .map(|(n, v, u)| format!("layer {n} {v} {u}")),
        );
        lines.join("\n")
    }

    /// Read back what [`Episode::to_text`] printed.
    pub fn parse(text: &str) -> Result<Episode, String> {
        fn all<T: std::str::FromStr>(words: &[&str]) -> Option<Vec<T>> {
            words.iter().map(|w| w.parse().ok()).collect()
        }
        let mut ep = Episode::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let w: Vec<&str> = rest.split_whitespace().collect();
            let ok = match (tag, &w[..]) {
                ("traced", _) => {
                    ep.traced = rest == "1";
                    Some(())
                }
                ("setup_s", _) => rest.parse().ok().map(|v| ep.setup_s = v),
                ("secs", _) => rest.parse().ok().map(|v| ep.secs = v),
                ("peak_rss_mb", _) => rest.parse().ok().map(|v| ep.peak_rss_mb = v),
                ("reopen_s", _) => rest.parse().ok().map(|v| ep.reopen_s = Some(v)),
                ("txns", _) => all(&w).map(|v| ep.txns = v),
                ("reads", _) => all(&w).map(|v| ep.reads = v),
                ("lags", _) => all(&w).map(|v| ep.lags = Some(v)),
                ("spans", [n, dropped]) => {
                    n.parse().ok().zip(dropped.parse().ok()).map(|(n, d)| {
                        ep.spans = n;
                        ep.spans_dropped = d;
                    })
                }
                ("attempt" | "error", [key, n]) => {
                    n.parse().ok().map(|n| ep.failures.read_line(tag, key, n))
                }
                ("mismatch", _) => {
                    ep.mismatches.push(rest.to_string());
                    Some(())
                }
                ("setting", _) => {
                    let (k, v) = rest.split_once(' ').unwrap_or((rest, ""));
                    ep.setting(k, v);
                    Some(())
                }
                ("layer", [name, value, unit]) => {
                    value.parse().ok().map(|v| ep.layers.put(name, v, unit))
                }
                _ => None,
            };
            if ok.is_none() {
                return Err(format!("bad episode line {line:?}"));
            }
        }
        Ok(ep)
    }
}

/// Run episode `k` of `wl` in this process.
pub fn episode<W: Workload>(plan: &Plan, k: usize, wl: &mut W) -> Result<Episode, String> {
    let mut ep = Episode {
        traced: plan.traced(k),
        ..Episode::default()
    };
    let t0 = Instant::now();
    let mut w = wl.set_up(k)?;
    ep.setup_s = t0.elapsed().as_secs_f64();
    let phase = if ep.traced {
        let regs = wl.registries(&w);
        let total = || {
            regs.iter()
                .map(|r| Reg::of(&r.snapshot()))
                .fold(Reg::default(), Reg::plus)
        };
        let before = total();
        regs.iter().for_each(|r| r.enable());
        probe::set_tracing(true);
        let phase = wl.load(&mut w, k);
        probe::set_tracing(false);
        regs.iter().for_each(|r| r.disable());
        let phase = phase?;
        let (spans, dropped) = probe::take_spans();
        ep.layers = layers::metrics(&Traced {
            spans: &SpanSummary::new(&spans),
            reg: total().since(before),
            committed: phase.txns.len() as u64,
            probes: wl.probes(),
        });
        let path = plan.trace_file();
        if let Err(e) = probe::write_spans(&path, &spans) {
            ep.mismatches.push(format!("write {}: {e}", path.display()));
        }
        ep.spans = spans.len() as u64;
        ep.spans_dropped = dropped;
        phase
    } else {
        wl.load(&mut w, k)?
    };
    ep.secs = phase.secs;
    ep.txns = phase.txns;
    ep.reads = phase.reads;
    ep.failures = phase.failures;
    wl.close(w, &mut ep, k)?;
    // Databases are scratch; only traces are kept.
    let _ = std::fs::remove_dir_all(plan.db_dir(k));
    ep.peak_rss_mb = crate::stats::peak_rss_mb();
    Ok(ep)
}

/// Host CPU counters from `/proc/stat`: time stolen by the hypervisor
/// and all time, in clock ticks over all CPUs.
struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    fn now() -> HostCpu {
        // `cpu  user nice system idle iowait irq softirq steal ...`
        let host: Vec<u64> = std::fs::read_to_string("/proc/stat")
            .unwrap_or_default()
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().unwrap_or(0))
            .collect();
        HostCpu {
            steal: host.get(7).copied().unwrap_or(0),
            total: host.iter().sum(),
        }
    }

    fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        ratio(
            self.steal.saturating_sub(earlier.steal) as f64,
            self.total.saturating_sub(earlier.total) as f64,
        )
    }
}

/// Rate and latency percentiles of one kind of transaction, pooled over
/// episodes.
struct Pooled {
    per_s: f64,
    /// The lower quartile: the latency of a transaction that no other
    /// tenant held up, which the host's load moves least.
    p25_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn pool<'a>(
    eps: impl Iterator<Item = &'a Episode>,
    samples: impl Fn(&Episode) -> &[u64],
) -> Pooled {
    let mut lat = Vec::new();
    let mut secs = 0.0;
    for ep in eps {
        lat.extend_from_slice(samples(ep));
        secs += ep.secs;
    }
    lat.sort_unstable();
    Pooled {
        per_s: ratio(lat.len() as f64, secs),
        p25_us: percentile_us(&lat, 0.25),
        p50_us: percentile_us(&lat, 0.50),
        p99_us: percentile_us(&lat, 0.99),
    }
}

/// The pooled result of a run.
#[derive(Default)]
pub struct Outcome {
    /// Every end-to-end metric that applies to the workload.
    pub e2e: Metrics,
    /// Per-layer metrics (traced run only): medians over the traced
    /// episodes, and the tracing overhead.
    pub layers: Metrics,
    pub failures: Failures,
    /// Output checks that failed (the first few, as `episode k: ...`).
    pub mismatches: Vec<String>,
    pub mismatch_count: usize,
    pub settings: Vec<(String, String)>,
    pub spans: u64,
    pub spans_dropped: u64,
}

/// Run episodes of `plan.workload`, each in a child process running
/// this same program with `--episode k`, while the next one is expected
/// to end within `plan.seconds`; pool what they measured.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the benchmark: {e}"))?;
    let budget = plan.seconds;
    let cpu = if plan.one_cpu {
        Some(last_cpu()?)
    } else {
        None
    };
    let host0 = HostCpu::now();
    let start = Instant::now();
    let mut eps: Vec<Episode> = Vec::new();
    // Wall time of every episode so far, child start to exit.
    let mut walls: Vec<f64> = Vec::new();
    while eps.len() < MIN_EPISODES || start.elapsed().as_secs_f64() + median(&walls) <= budget {
        let k = eps.len();
        let t0 = Instant::now();
        let mut cmd = match &cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["--cpu-list", cpu]).arg(&exe);
                c
            }
            None => Command::new(&exe),
        };
        let child = cmd
            .args(["--workload", &plan.workload])
            .args(["--seed", &plan.seed.to_string()])
            .args(["--trace", if plan.trace { "1" } else { "0" }])
            .args(["--episode", &k.to_string()])
            .arg("--run-dir")
            .arg(&plan.dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start episode {k}: {e}"))?;
        if !child.status.success() {
            return Err(format!("episode {k} failed ({})", child.status));
        }
        eps.push(Episode::parse(&String::from_utf8_lossy(&child.stdout))?);
        walls.push(t0.elapsed().as_secs_f64());
    }
    let steal = HostCpu::now().steal_share_since(&host0);
    let mut out = pooled(plan, &eps, steal);
    out.settings.push((
        "episode_cpus".into(),
        cpu.map_or("all".into(), |c| format!("cpu{c}")),
    ));
    Ok(out)
}

/// The highest-numbered CPU this process may run on, from the
/// `Cpus_allowed_list` line (`0-1`, `0,2-3`, ...) of its status.
fn last_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(|list| list.trim().rsplit([',', '-']).next())
        .filter(|cpu| !cpu.is_empty() && cpu.bytes().all(|b| b.is_ascii_digit()))
        .map(str::to_string)
        .ok_or("no Cpus_allowed_list in /proc/self/status".into())
}

fn pooled(plan: &Plan, eps: &[Episode], steal: f64) -> Outcome {
    let mut out = Outcome {
        settings: eps[0].settings.clone(),
        ..Outcome::default()
    };
    out.settings
        .push(("episodes".into(), eps.len().to_string()));
    for (k, ep) in eps.iter().enumerate() {
        out.failures.merge(&ep.failures);
        out.mismatch_count += ep.mismatches.len();
        for m in &ep.mismatches {
            if out.mismatches.len() < MAX_REPORTED {
                out.mismatches.push(format!("episode {k}: {m}"));
            }
        }
        out.spans += ep.spans;
        out.spans_dropped += ep.spans_dropped;
    }
    let untraced = || eps.iter().filter(|e| !e.traced);
    let traced = || eps.iter().filter(|e| e.traced);
    let samples: usize = untraced().map(|e| e.txns.len()).sum();
    out.settings
        .push(("txn_samples".into(), samples.to_string()));

    let m = &mut out.e2e;
    let setups: Vec<f64> = eps.iter().map(|e| e.setup_s).collect();
    m.put("setup_s", median(&setups), "s");
    let t = pool(untraced(), |e| &e.txns);
    m.put("txn_per_s", t.per_s, "1/s");
    m.put("txn_p25_us", t.p25_us, "us");
    m.put("txn_p50_us", t.p50_us, "us");
    m.put("txn_p99_us", t.p99_us, "us");
    if eps.iter().any(|e| !e.reads.is_empty()) {
        let r = pool(untraced(), |e| &e.reads);
        m.put("read_p50_us", r.p50_us, "us");
        m.put("read_p99_us", r.p99_us, "us");
        m.put("reads_per_s", r.per_s, "1/s");
    }
    if eps.iter().any(|e| e.lags.is_some()) {
        let mut lags: Vec<f64> = untraced()
            .flat_map(|e| e.lags.iter().flatten().copied())
            .collect();
        lags.sort_by(f64::total_cmp);
        let pick = |q: f64| -> f64 {
            if lags.is_empty() {
                return 0.0;
            }
            lags[((lags.len() - 1) as f64 * q).round() as usize]
        };
        m.put("alarm_lag_p50_us", pick(0.50), "us");
        m.put("alarm_lag_p99_us", pick(0.99), "us");
        out.settings
            .push(("alarm_lag_samples".into(), lags.len().to_string()));
    }
    let reopens: Vec<f64> = eps.iter().filter_map(|e| e.reopen_s).collect();
    if !reopens.is_empty() {
        m.put("reopen_s", median(&reopens), "s");
    }
    m.put(
        "op_fail_ratio",
        ratio(
            out.failures.failed() as f64,
            out.failures.attempted() as f64,
        ),
        "ratio",
    );
    let rss = eps.iter().map(|e| e.peak_rss_mb).fold(0.0, f64::max);
    m.put("peak_rss_mb", rss, "MiB");
    m.put("host_steal_share", steal, "ratio");

    if plan.trace {
        // Each per-layer metric is its median over the traced episodes.
        if let Some(first) = traced().next() {
            for (name, _, unit) in first.layers.iter() {
                let values: Vec<f64> = traced()
                    .flat_map(|e| e.layers.iter().filter(|l| l.0 == name).map(|l| l.1))
                    .collect();
                out.layers.put(name, median(&values), unit);
            }
        }
        let plain = pool(untraced(), |e| &e.txns).per_s;
        let probed = pool(traced(), |e| &e.txns).per_s;
        out.layers.put(
            "bench.trace_overhead_ratio",
            ratio(plain - probed, plain),
            "ratio",
        );
    }
    out
}

/// Create an episode's database directory, empty.
pub fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Convert a system error into the error text a failed run reports.
pub fn ctx<T>(what: &str, r: reach_common::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_text_round_trips() {
        let mut ep = Episode {
            traced: true,
            setup_s: 0.0031,
            secs: 1.25,
            txns: vec![1_200_000, 990_500],
            reads: vec![],
            reopen_s: Some(0.004),
            lags: Some(vec![-212.5, 30.25]),
            peak_rss_mb: 21.5,
            spans: 7,
            spans_dropped: 1,
            ..Episode::default()
        };
        ep.setting("checkpoint_bytes", "off");
        ep.mismatches
            .push("sensor 3 alarms: got Int(2), model says Int(3)".into());
        let e: reach_common::Result<()> = Err(reach_common::ReachError::Deadlock(
            reach_common::TxnId::new(0),
        ));
        ep.failures.check("commit", e);
        ep.layers
            .put("storage.wal_forces_per_commit", 0.75, "1/txn");

        let back = Episode::parse(&ep.to_text()).expect("parses");
        assert_eq!(back.to_text(), ep.to_text());
        assert_eq!((back.failures.attempted(), back.failures.failed()), (1, 1));
        assert!(Episode::parse("txns 12 x").is_err());
    }
}
