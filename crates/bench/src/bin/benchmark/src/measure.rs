//! Measurement plumbing shared by every workload: sample statistics,
//! the host-speed reference, the in-memory span recorder, and what one
//! pass of a workload measured.

use crate::RunOpts;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of an ascending slice (`p` in `0..=1`);
/// `0` for an empty slice.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `values` sorted ascending (NaN-free by construction: every sample is
/// a duration or a ratio of positive counts).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// Pearson correlation of paired samples; `0` when either side is
/// constant or fewer than three pairs exist.
pub fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    if pairs.len() < 3 {
        return 0.0;
    }
    let (mx, my) = (
        pairs.iter().map(|p| p.0).sum::<f64>() / n,
        pairs.iter().map(|p| p.1).sum::<f64>() / n,
    );
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for &(x, y) in pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A memory figure of this process from `/proc/self/status`, in MiB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Keys the host reference inserts and looks up, per pass.
const REFERENCE_KEYS: u64 = 100_000;
/// Fewest timed passes per reference sample.
const REFERENCE_PASSES: u32 = 2;
/// A reference sample lasts at least this share of the cell before it,
/// so a long cell is bracketed by a long, steady sample.
const REFERENCE_SHARE: f64 = 0.1;
/// One reference pass's median time on an unloaded host (a 2-vCPU
/// x86-64 KVM guest). Measured times are rescaled to this speed.
const REFERENCE_NOMINAL_S: f64 = 0.00415;

/// Rescales measured times to a nominal host speed.
///
/// On a shared host the same work runs up to twice as slow for minutes
/// at a time, as neighbours load the shared caches, memory and clocks,
/// so rounds within a run agree while runs minutes apart do not. A fixed
/// reference task (hashing into a 4 MiB table allocated once, code of
/// this benchmark only) slows down with them. A reference sample follows
/// every measured cell and lasts at least a tenth of it, and the cell's
/// times are scaled by the nominal pass time over the mean pass time of
/// the samples before and after it. A program change cannot move the
/// reference, so it moves the rescaled times exactly as it moves the
/// measured ones. The samples also evict the caches between cells, so
/// every cell starts as cold as a one-shot analysis does, whatever cell
/// ran before it.
pub struct HostSpeed {
    table: HashMap<u64, [u64; 3], BuildHasherDefault<DefaultHasher>>,
    /// The latest reference sample's mean pass time, in seconds.
    last: f64,
    /// Rescaled (write, read) times added since the last
    /// [`HostSpeed::finish`], in seconds.
    added: [f64; 2],
    /// Mean pass time of every reference sample after a measured cell,
    /// in seconds.
    samples: Vec<f64>,
    /// Resident memory the reference table holds, in MiB.
    pub resident_mb: f64,
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let before = status_mb("VmRSS:");
        let mut host = HostSpeed {
            table: HashMap::with_capacity_and_hasher(REFERENCE_KEYS as usize, Default::default()),
            last: 0.0,
            added: [0.0; 2],
            samples: Vec::new(),
            resident_mb: 0.0,
        };
        // The first sample touches every page of the table.
        host.reference(0.0);
        host.resident_mb = (status_mb("VmRSS:") - before).max(0.0);
        host.last = host.reference(0.0);
        host
    }

    /// One pass of the reference task: fill the table and look every
    /// key up again.
    fn pass(&mut self) -> u64 {
        let key = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.table.clear();
        for i in 0..REFERENCE_KEYS {
            self.table.insert(key(i), [i; 3]);
        }
        (0..REFERENCE_KEYS).fold(0, |sum, i| {
            sum.wrapping_add(self.table.get(&key(i)).map_or(0, |v| v[0]))
        })
    }

    /// Runs reference passes for at least `min_s` seconds and
    /// [`REFERENCE_PASSES`] passes; returns the mean pass time in
    /// seconds. An untimed pass first brings the table back into the
    /// caches, so the time does not depend on how much of it the
    /// measured cell evicted.
    fn reference(&mut self, min_s: f64) -> f64 {
        std::hint::black_box(self.pass());
        let t0 = Instant::now();
        let mut passes = 0;
        while passes < REFERENCE_PASSES || t0.elapsed().as_secs_f64() < min_s {
            std::hint::black_box(self.pass());
            passes += 1;
        }
        t0.elapsed().as_secs_f64() / f64::from(passes)
    }

    /// Takes a reference sample (a `bench.reference` span under
    /// `parent`) right after a cell whose (write, read) phases took
    /// `phases` seconds, and adds them rescaled by the mean of this
    /// sample and the one before.
    pub fn add(&mut self, trace: &mut Tracer, parent: u64, phases: [f64; 2]) {
        let t0 = Instant::now();
        let now = self.reference(REFERENCE_SHARE * (phases[0] + phases[1]));
        let id = trace.id();
        trace.record(id, parent, parent, REFERENCE_SPAN, t0, Instant::now(), &[]);
        let scale = REFERENCE_NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.samples.push(now);
        for (sum, x) in self.added.iter_mut().zip(phases) {
            *sum += x * scale;
        }
    }

    /// The rescaled (write, read) seconds added since the last call.
    pub fn finish(&mut self) -> [f64; 2] {
        std::mem::take(&mut self.added)
    }

    /// The host's median slowdown against the nominal speed, as a line
    /// of the run's report.
    pub fn report(&self) -> String {
        let m = median(&self.samples);
        format!(
            "host: reference pass {:.3} ms (median of {} samples), nominal {:.3} ms, slowdown {:.3}",
            m * 1e3,
            self.samples.len(),
            REFERENCE_NOMINAL_S * 1e3,
            m / REFERENCE_NOMINAL_S
        )
    }
}

/// Span name of a host reference sample; its time is not the program's.
const REFERENCE_SPAN: &str = "bench.reference";

/// Per-round exact work counters (`ide.propagations`, `bdd.ops`, ...).
pub type Counters = BTreeMap<&'static str, u64>;

/// Everything one pass (untraced or traced) of a workload measured.
#[derive(Default)]
pub struct Pass {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per round of the workload's fixed work.
    pub round_s: Vec<f64>,
    /// Milliseconds per write: a request that computes a solution
    /// (serve-edit), or a round's computing phase (batch workloads).
    pub write_ms: Vec<f64>,
    /// Milliseconds per read: a request answered from a computed
    /// solution (serve-edit), or a round's digesting phase (batch).
    pub read_ms: Vec<f64>,
    /// Milliseconds per whole operation (cell, solve or request).
    pub op_ms: Vec<f64>,
    /// Exact counters, one map per round.
    pub counters: Vec<Counters>,
    /// Per-layer values the workload derives itself (server stage
    /// shares, cache ratios, the jump-function correlation).
    pub layer: BTreeMap<&'static str, f64>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// One line per failed operation or check.
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    pub trace: Tracer,
}

impl Pass {
    pub fn new(traced: bool) -> Pass {
        Pass {
            trace: Tracer::new(traced),
            ..Pass::default()
        }
    }

    /// Counts one attempted operation or check, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Flags rounds whose exact counters differ: at `threads = 1` every
    /// round of a workload does identical work.
    pub fn check_counters_repeat(&mut self) {
        for (i, c) in self.counters.iter().enumerate().skip(1) {
            if *c != self.counters[0] {
                self.failures.push(format!(
                    "round {i} counters {c:?} differ from round 0 {:?}",
                    self.counters[0]
                ));
            }
        }
    }
}

/// Whether round `i` of a pass records spans: in a traced pass, rounds
/// alternate untraced and traced, so both kinds see the same host
/// conditions and their ratio is the tracing overhead.
pub fn traced_round(opts: &RunOpts, i: usize) -> bool {
    opts.traced && i % 2 == 1
}

/// Runs `round(i, traced)` twice (once if `opts.max_rounds` is 1 in an
/// untraced pass) and then while another round is predicted to fit in
/// `opts.budget` (by the median round so far), at most
/// `opts.max_rounds` times. Every round is the same fixed work, so how
/// many fit changes only how many samples the medians see. The second
/// round is never skipped: on a loaded host a `lifted-bdd` round with
/// the A2 oracle can take half the budget, and one round is too few.
///
/// Returns the peak RSS once the first round is done: later rounds
/// repeat its work, and would add only allocator fragmentation, which
/// grows with their number.
pub fn run_rounds(opts: &RunOpts, mut round: impl FnMut(usize, bool) -> Duration) -> f64 {
    let min = if opts.traced {
        2
    } else {
        opts.max_rounds.min(2)
    };
    let start = Instant::now();
    let mut taken: Vec<f64> = Vec::new();
    let mut peak = 0.0;
    for i in 0..opts.max_rounds.max(min) {
        taken.push(round(i, traced_round(opts, i)).as_secs_f64());
        if i == 0 {
            peak = peak_rss_mb();
        }
        let next = median(&taken);
        if i + 1 >= min && start.elapsed().as_secs_f64() + next > opts.budget.as_secs_f64() {
            break;
        }
    }
    peak
}

/// One recorded span. Spans of one cell or one request share `group`.
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub group: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub counters: Vec<(&'static str, u64)>,
}

/// In-memory span recorder. When off, [`Tracer::record`] does nothing,
/// so untraced passes pay one branch per layer boundary.
#[derive(Default)]
pub struct Tracer {
    on: bool,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// A fresh span or group id (ids start at 1; parent 0 = root).
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        group: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        counters: &[(&'static str, u64)],
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                group,
                name,
                start,
                end,
                counters: counters.to_vec(),
            });
        }
    }

    /// Total duration of root spans less the host reference samples
    /// inside them, in ms.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .map(|s| match (s.parent, s.name) {
                (0, _) => ms(s.end - s.start),
                (_, REFERENCE_SPAN) => -ms(s.end - s.start),
                _ => 0.0,
            })
            .sum()
    }

    /// Per span name: (calls, total ms, self ms). Self time is a span's
    /// duration minus the part of it its children cover (children of
    /// concurrent clients may overlap, so their union is subtracted).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end - s.start;
            let mut covered = Duration::ZERO;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort();
                let mut cur: Option<(Instant, Instant)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ms(total);
            e.2 += ms(total.saturating_sub(covered));
        }
        out
    }

    /// The spans as JSON lines, times in ns since the first span.
    pub fn jsonl(&self) -> String {
        let epoch = self.spans.iter().map(|s| s.start).min();
        let mut out = String::new();
        for s in &self.spans {
            let at = |t: Instant| epoch.map_or(0, |e| (t - e).as_nanos());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"group\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                s.id,
                s.parent,
                s.group,
                s.name,
                at(s.start),
                at(s.end)
            );
            for (i, (k, v)) in s.counters.iter().enumerate() {
                let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
            }
            out.push_str("}}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pearson_of_a_line_is_one() {
        let pairs: Vec<(f64, f64)> = (0..5).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((pearson(&pairs) - 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(true);
        t.record(1, 0, 1, "round", at(0), at(100), &[]);
        t.record(2, 1, 2, "request", at(10), at(50), &[]);
        t.record(3, 1, 3, "request", at(40), at(60), &[]);
        let st = t.self_times();
        assert!((st["round"].2 - 50.0).abs() < 1e-9);
        assert_eq!(st["request"].0, 2);
        assert!((t.root_ms() - 100.0).abs() < 1e-9);
        t.record(4, 1, 1, REFERENCE_SPAN, at(70), at(80), &[]);
        assert!((t.root_ms() - 90.0).abs() < 1e-9);
    }

    /// Every cell is followed by a reference sample, and rescaling
    /// keeps the ratio of the phases.
    #[test]
    fn host_speed_rescales_each_cell() {
        let mut host = HostSpeed::new();
        let mut trace = Tracer::new(true);
        host.add(&mut trace, 0, [0.03, 0.01]);
        let [w, r] = host.finish();
        assert!(r > 0.0 && (w / r - 3.0).abs() < 1e-9, "{w} {r}");
        assert_eq!(host.finish(), [0.0, 0.0]);
        assert_eq!(host.samples.len(), 1);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, REFERENCE_SPAN);
    }
}
