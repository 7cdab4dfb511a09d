//! The closed loop shared by the workloads: repeated set-up, one client
//! issuing ops back to back for the run's seconds, output checks, the
//! quality block, and the result line.
//!
//! # Latency estimation
//!
//! A round is a fixed set of ops that every round repeats (the ten
//! programs; for `fleet-store`, the same jobs replayed from one store
//! snapshot), and each op carries a label naming its place in the round.
//! Noise on a small shared machine only ever adds time, and it comes in
//! two kinds. Short preemptions slow single ops. Stretches of seconds to
//! minutes slow every op by 1.3-2x, and a whole run can fall into one. So
//! the harness times a fixed yardstick (`yardstick.rs`) before every round;
//! the machine's speed at a round is the reference yardstick time over the
//! median reading of the 21 rounds around it, and each op's latency is
//! multiplied by the square root of that speed. In ten-run sets on a noisy
//! host the ops followed between about half and all of the yardstick's
//! slowdown (in log terms), depending on the workload and the contention:
//! the full correction overshot on `detect-cold`, none left `fleet-store`
//! noisiest, and the square root kept every workload's spread lowest. Each
//! label's latency is then the median of its scaled samples in the run,
//! which drops the preempted ops. (The best sample would drop them too, but
//! on a slow stretch it is one lucky op, and it read up to 25% apart
//! between runs.) The end-to-end figures are taken over the round's mix of
//! labels:
//!
//! * `latency_p50_ms` / `latency_p95_ms`: the nearest-rank percentile of
//!   op latency over the mix, each label weighted by its share of ops;
//! * `programs_per_s`: the programs of one round divided by the summed
//!   label latencies (the closed loop's rate at those latencies).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::quality;
use crate::reference::Reference;
use crate::trace::Tracer;
use crate::yardstick::{Yardstick, REFERENCE_SECONDS};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["detect-cold", "repair-loop", "fleet-store"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Op id of the spans recorded by the quality block.
pub const QUALITY_OP: u64 = u64::MAX;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub write_reference: bool,
}

/// What one op did.
pub struct OpOutcome {
    /// Seconds from the op's first call to its last return (the output
    /// checks and any traced-only probes run after it).
    pub latency: f64,
    /// Programs the op completed.
    pub programs: u64,
    /// Output mismatches; an op with any counts as failed.
    pub failures: Vec<String>,
    /// The op's place in the round (a program name, or a job number).
    pub label: &'static str,
}

/// One benchmark workload.
pub trait Workload {
    /// Ops per round. A run ends on a round boundary; the traced run
    /// alternates traced and untraced rounds and takes its counters from
    /// the first round only, so that they repeat exactly.
    fn round(&self) -> u64;
    /// Prepares the workload from scratch: everything an op needs before
    /// the first timed op (timed as `setup_s`).
    fn setup(&mut self) -> Result<(), String>;
    /// Runs op `k`. When the tracer is on, the op records its spans and
    /// counters and may probe single layers after its timed section.
    fn op(&mut self, k: u64, tr: &mut Tracer) -> OpOutcome;
}

/// Linear-interpolated percentile of sorted values.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// One timed op.
struct Sample {
    label: &'static str,
    /// Wall-clock seconds.
    latency: f64,
    programs: u64,
    round: usize,
}

/// Rounds on each side of a round whose yardstick readings set its speed.
const SPEED_WINDOW: usize = 10;

/// Share (in log terms) of the yardstick's slowdown taken out of op
/// latencies; see the module documentation.
const SPEED_EXPONENT: f64 = 0.5;

/// Machine speed at each round against the reference machine: the
/// reference yardstick time over the median reading of the rounds around
/// it. A single reading jitters by 10-30% on a slow stretch.
fn round_speeds(yard: &[f64]) -> Vec<f64> {
    (0..yard.len())
        .map(|r| {
            let lo = r.saturating_sub(SPEED_WINDOW);
            let hi = (r + SPEED_WINDOW + 1).min(yard.len());
            REFERENCE_SECONDS / percentile(&sorted(&yard[lo..hi]), 0.5)
        })
        .collect()
}

/// `(label, latency at the reference speed, programs)` of each sample.
fn scaled(samples: &[Sample], speeds: &[f64]) -> Vec<(&'static str, f64, u64)> {
    samples
        .iter()
        .map(|s| {
            let scale = speeds[s.round].powf(SPEED_EXPONENT);
            (s.label, s.latency * scale, s.programs)
        })
        .collect()
}

/// One label's samples and estimated latency.
struct LabelCost {
    label: &'static str,
    /// Median of the samples, in seconds.
    cost: f64,
    best: f64,
    samples: usize,
    programs: u64,
}

/// Groups `(label, latency, programs)` samples by label.
fn label_costs(samples: &[(&'static str, f64, u64)]) -> Vec<LabelCost> {
    let mut by_label: BTreeMap<&'static str, (Vec<f64>, u64)> = BTreeMap::new();
    for &(label, latency, programs) in samples {
        let e = by_label.entry(label).or_default();
        e.0.push(latency);
        e.1 = programs;
    }
    by_label
        .into_iter()
        .map(|(label, (v, programs))| {
            let v = sorted(&v);
            LabelCost {
                label,
                cost: percentile(&v, 0.5),
                best: v[0],
                samples: v.len(),
                programs,
            }
        })
        .collect()
}

/// Nearest-rank percentile of op latency over the label mix.
fn mix_percentile(costs: &[LabelCost], p: f64) -> f64 {
    let mut by_cost: Vec<&LabelCost> = costs.iter().collect();
    by_cost.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    let total: usize = costs.iter().map(|c| c.samples).sum();
    let mut seen = 0;
    for c in &by_cost {
        seen += c.samples;
        if seen as f64 >= p * total as f64 {
            return c.cost;
        }
    }
    by_cost.last().map_or(0.0, |c| c.cost)
}

/// Seconds of one round at the estimated latencies, and its programs.
fn round_cost(costs: &[LabelCost]) -> (f64, u64) {
    (
        costs.iter().map(|c| c.cost).sum(),
        costs.iter().map(|c| c.programs).sum(),
    )
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// Runs the workload and prints the result; `Ok(true)` once the result
/// line is out (a run with failed ops reports `correct: false`).
pub fn run(args: &Args, w: &mut dyn Workload) -> Result<bool, String> {
    let reference = Reference::load()?;
    let mut yardstick = Yardstick::new();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        w.setup()?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let mut tr = Tracer::new(false);
    let round = w.round();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    // Yardstick seconds before each round.
    let mut yard = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut traced_labels: BTreeMap<u64, &'static str> = BTreeMap::new();
    let mut k = 0u64;
    // Trace mode needs at least one traced and one untraced round.
    let min_ops = if args.trace { 2 * round } else { round };
    while k < min_ops || !k.is_multiple_of(round) || started.elapsed() < budget {
        let r = k / round;
        if k.is_multiple_of(round) {
            yard.push(yardstick.measure());
        }
        let traced_op = args.trace && r.is_multiple_of(2);
        tr.set_enabled(traced_op);
        tr.set_counting(r == 0);
        tr.set_op(k);
        let out = w.op(k, &mut tr);
        attempted += 1;
        if !out.failures.is_empty() {
            failed += 1;
            for f in out.failures.iter().take(3) {
                eprintln!("op {k} ({}): {f}", out.label);
            }
        }
        let sample = Sample {
            label: out.label,
            latency: out.latency,
            programs: out.programs,
            round: r as usize,
        };
        if traced_op {
            traced.push(sample);
            traced_labels.insert(k, out.label);
        } else {
            untraced.push(sample);
        }
        k += 1;
    }
    let loop_seconds = started.elapsed().as_secs_f64();
    let speeds = round_speeds(&yard);
    let (untraced, traced) = (scaled(&untraced, &speeds), scaled(&traced, &speeds));
    // Before the quality block, whose allocations are not the workload's.
    let peak_rss = peak_rss_mb();

    tr.set_enabled(args.trace);
    tr.set_counting(true);
    tr.set_op(QUALITY_OP);
    let quality = quality::compute(&reference, &mut tr)?;
    let correct = failed == 0 && quality.failures.is_empty();
    for f in &quality.failures {
        eprintln!("quality: {f}");
    }

    println!(
        "workload {} seed {} trace {}: {attempted} ops ({failed} failed) in {loop_seconds:.2} s",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let costs = label_costs(&untraced);
    let sp = sorted(&speeds);
    eprintln!(
        "  speed vs reference: median {:.3}, range {:.3}..{:.3} over {} rounds",
        percentile(&sp, 0.5),
        sp[0],
        sp[sp.len() - 1],
        sp.len()
    );
    print_costs("untraced", &costs);
    let n = untraced.len();
    let metrics: Vec<Metric> = if args.trace {
        let traced_costs = label_costs(&traced);
        print_costs("traced", &traced_costs);
        print_breakdown(&tr, &traced_labels);
        let overhead = round_cost(&traced_costs).0 / round_cost(&costs).0;
        crate::trace_metrics::layer_metrics(&tr, traced.len() as f64, overhead)
            .into_iter()
            .map(|(name, unit, value)| Metric::new(name, unit, value, traced.len()))
            .collect()
    } else {
        let (round_seconds, round_programs) = round_cost(&costs);
        vec![
            Metric::new(
                "programs_per_s",
                "1/s",
                round_programs as f64 / round_seconds,
                n,
            ),
            Metric::new("latency_p50_ms", "ms", mix_percentile(&costs, 0.5) * 1e3, n),
            Metric::new(
                "latency_p95_ms",
                "ms",
                mix_percentile(&costs, 0.95) * 1e3,
                n,
            ),
            Metric::new(
                "setup_s",
                "s",
                // The set-ups ran just before the loop, so at the run's
                // median speed.
                percentile(&sorted(&setups), 0.5)
                    * percentile(&sorted(&speeds), 0.5).powf(SPEED_EXPONENT),
                setups.len(),
            ),
            Metric::new("peak_rss_mb", "MiB", peak_rss, 1),
            Metric::new("repair_remaining", "count", quality.remaining as f64, 1),
            Metric::new("sim_tps_gain", "x", quality.tps_gain, 1),
            Metric::new("sim_p99_ratio", "x", quality.p99_ratio, 1),
        ]
    };
    if !args.trace {
        let error_rate = failed as f64 / attempted as f64;
        println!(
            "  {:<34} {error_rate:>14.4} {:<6} n={attempted}",
            "error_rate", "ratio"
        );
    }
    for m in &metrics {
        println!(
            "  {:<34} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(true)
}

/// JSON has no NaN or infinity; a metric without data reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Estimated latency per label (to stderr).
fn print_costs(kind: &str, costs: &[LabelCost]) {
    for c in costs {
        eprintln!(
            "  {kind:<8} {:<12} ops={:<5} median_ms={:.3} best_ms={:.3}",
            c.label,
            c.samples,
            c.cost * 1e3,
            c.best * 1e3
        );
    }
}

/// Per-label self time of every span in the traced ops (to stderr): where
/// one label's op spends its time.
fn print_breakdown(tr: &Tracer, labels: &BTreeMap<u64, &'static str>) {
    let mut ops: BTreeMap<&str, usize> = BTreeMap::new();
    for label in labels.values() {
        *ops.entry(label).or_default() += 1;
    }
    for (label, n) in ops {
        let spans = tr.self_seconds(|op| labels.get(&op) == Some(&label));
        let parts: Vec<String> = spans
            .iter()
            .map(|(name, s)| format!("{name}={:.3}", s * 1e3 / n as f64))
            .collect();
        eprintln!("  {label:<12} self_ms/op: {}", parts.join(" "));
    }
}
