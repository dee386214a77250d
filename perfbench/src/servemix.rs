//! Open-loop `/run` traffic against a running `serve`: a seeded mix of
//! cached cells, cold cells that must simulate, and duplicates of an
//! in-flight cold cell that coalesce with it. The mix is synthetic: the
//! repository's own `/run` client (`cluster coord`) sends each cell of a
//! sweep once, closed loop, so its traffic is all cold (a cold sweep) or
//! all cached (its re-run) and never duplicates a request except on a
//! retry. Latency is measured at one fixed rate; the sustainable rate is
//! found by climbing a ladder of rates until a rung misses the SLO.
//! Every response is checked.

use crate::cells::{digest, Cell};
use crate::loadgen::{even_schedule, open_loop, Outcome, Planned};
use crate::proc::Serve;
use crate::report::{num, Report};
use crate::stats::{max_rps_slo, median, Rung, Timing};
use rand::rngs::SmallRng;
use rand::Rng as _;
use serde::Value;
use std::collections::HashMap;

/// What a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A cell primed before timing.
    Cached,
    /// A cell no request has asked for yet.
    Cold,
    /// The same cell as a cold request sent just before it.
    Dup,
}

/// One request in this many is cold. A cold small-scale cell costs
/// about 30 cached requests of server time, so at one in twelve the
/// simulator does most of the server's work while the cached path still
/// carries most requests. Cold requests sit at fixed positions so that
/// how often two of them overlap does not depend on the seed.
pub const COLD_EVERY: usize = 12;

/// Rate ratio between consecutive ladder rungs.
pub const STEP: f64 = 1.15;

/// A climb stops after this many rungs even if every one passes.
const MAX_RUNGS: usize = 24;

/// Rungs below the previous climb's result that a later climb starts at:
/// one, so that every climb after the first spends its rungs near the
/// sustainable rate (an up-down staircase around it).
const RESTART_STEPS: i32 = 1;

/// Every this many cold requests, one is followed, [`DUP_GAP`] requests
/// later, by a duplicate that coalesces with it in flight.
pub const DUP_EVERY: usize = 3;

/// The fixed rate latency is reported at (requests per second); the
/// first climb starts two steps above it.
pub const FIXED_RATE: f64 = 120.0;

/// The timing of one serve phase.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Seconds sent at [`FIXED_RATE`].
    pub fixed_s: f64,
    /// Seconds of ladder climbing (0: none; otherwise at least one climb
    /// runs).
    pub climb_s: f64,
    /// Seconds each climbing rung lasts.
    pub rung_s: f64,
}

/// Checks responses against the reference run and against each other.
pub struct Checker {
    /// Committed-path instructions per (bench, scale tag).
    pub dyn_of: HashMap<(String, String), u64>,
    /// Stats digest and stats per request body, from the first response
    /// seen.
    pub expected: HashMap<String, (String, Value)>,
}

impl Checker {
    /// Check one response to `body`: status 200, committed equals the
    /// reference interpreter's count, and the statistics equal every
    /// earlier response for the same cell. Returns the cell's committed
    /// instruction count.
    ///
    /// # Errors
    /// Returns what was wrong.
    pub fn check(&mut self, body: &str, kind: Kind, o: &Outcome) -> Result<u64, String> {
        if o.status != 200 {
            return Err(format!("status {}: {}", o.status, o.body));
        }
        let v: Value = serde_json::from_str(&o.body).map_err(|e| format!("bad JSON: {e}"))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("response lacks `{k}`"));
        let bench = field("bench")?.as_str().unwrap_or_default().to_string();
        let scale = field("scale")?.as_str().unwrap_or_default().to_string();
        let stats = field("stats")?.clone();
        let committed = stats.get("committed").and_then(Value::as_u64).unwrap_or(0);
        let want = self.dyn_of.get(&(bench.clone(), scale.clone()));
        if want != Some(&committed) {
            return Err(format!(
                "{bench}/{scale}: committed {committed}, reference {want:?}"
            ));
        }
        let cached = field("cached")?.as_bool() == Some(true);
        if kind == Kind::Cached && !cached {
            return Err(format!(
                "{bench}: primed cell was not served from the cache"
            ));
        }
        if kind == Kind::Cold && cached {
            return Err(format!("{bench}: cold cell was served from the cache"));
        }
        let d = digest(&stats.to_string());
        match self.expected.get(body) {
            Some((prev, _)) if *prev != d => {
                return Err(format!("{bench}: statistics differ between responses"))
            }
            Some(_) => {}
            None => {
                self.expected.insert(body.to_string(), (d, stats));
            }
        }
        Ok(committed)
    }
}

/// One sent request and its checked result.
#[derive(Clone, Debug)]
pub struct Sent {
    /// What it asked for.
    pub kind: Kind,
    /// Timing and raw response.
    pub outcome: Outcome,
    /// The check result: the cell's committed instructions, or what was
    /// wrong.
    pub checked: Result<u64, String>,
}

/// One rung's requests.
#[derive(Clone, Debug)]
pub struct RungRun {
    /// Offered rate.
    pub rate: f64,
    /// Every request, in due order.
    pub sent: Vec<Sent>,
}

impl RungRun {
    /// The rung as the ladder rule sees it (a failed check is a miss).
    pub fn rung(&self) -> Rung {
        let first_due = self.sent.first().map_or(0.0, |s| s.outcome.due_s);
        let last_done = self
            .sent
            .iter()
            .map(|s| s.outcome.done_s)
            .fold(first_due, f64::max);
        Rung {
            rate: self.rate,
            latencies_ms: self
                .sent
                .iter()
                .map(|s| {
                    if s.checked.is_ok() {
                        s.outcome.latency_ms()
                    } else {
                        f64::INFINITY
                    }
                })
                .collect(),
            span_s: (last_done - first_due).max(1e-9),
        }
    }

    /// Latencies (ms, from due) of the requests of `kind`.
    pub fn latencies(&self, kind: Kind) -> Vec<f64> {
        self.sent
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.outcome.latency_ms())
            .collect()
    }

    /// How late each request was sent, in ms.
    pub fn lags(&self) -> Vec<f64> {
        self.sent.iter().map(|s| s.outcome.lag_ms()).collect()
    }
}

/// Slots between a cold request and its duplicate: late enough that the
/// request in between is not stuck behind both, early enough that the
/// cold cell is still simulating.
const DUP_GAP: usize = 2;

/// Plan one rung: `n` evenly spaced requests. Cold requests (and their
/// duplicates) take fixed positions; the seed picks the cached cells.
fn plan_rung(
    n: usize,
    rate: f64,
    cached: &[Cell],
    cold: &mut impl Iterator<Item = Cell>,
    rng: &mut SmallRng,
) -> (Vec<Planned>, Vec<Kind>) {
    let due = even_schedule(n, rate);
    let mut plan: Vec<Planned> = Vec::with_capacity(n);
    let mut kinds = Vec::with_capacity(n);
    let mut colds = 0;
    let mut dup_at: Option<(usize, String)> = None;
    for (i, &due_s) in due.iter().enumerate() {
        let (kind, body) = if dup_at.as_ref().is_some_and(|(at, _)| *at == i) {
            let (_, body) = dup_at.take().expect("checked");
            (Kind::Dup, body)
        } else if let Some(c) = (i % COLD_EVERY == COLD_EVERY / 2)
            .then(|| cold.next())
            .flatten()
        {
            colds += 1;
            let body = c.run_body();
            if colds % DUP_EVERY == 0 {
                dup_at = Some((i + DUP_GAP, body.clone()));
            }
            (Kind::Cold, body)
        } else {
            (
                Kind::Cached,
                cached[rng.gen_range(0..cached.len())].run_body(),
            )
        };
        plan.push(Planned { due_s, body });
        kinds.push(kind);
    }
    (plan, kinds)
}

/// Order `cold` so that every stretch of it mixes the (benchmark,
/// contexts) groups in the same proportions: groups take turns in a
/// fixed order, and the seed only picks which member of a group comes
/// next. Cold-cell cost then varies little from seed to seed.
pub fn stratified(cold: &[Cell], rng: &mut SmallRng) -> Vec<Cell> {
    let mut groups: Vec<Vec<Cell>> = Vec::new();
    for c in cold {
        match groups
            .iter_mut()
            .find(|g| g[0].bench == c.bench && g[0].config.contexts == c.config.contexts)
        {
            Some(g) => g.push(c.clone()),
            None => groups.push(vec![c.clone()]),
        }
    }
    for g in &mut groups {
        for i in (1..g.len()).rev() {
            g.swap(i, rng.gen_range(0..=i));
        }
    }
    let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| groups.iter().filter_map(move |g| g.get(i).cloned()))
        .collect()
}

/// A serve phase's requests: the fixed-rate segments, then each climb's
/// rungs.
#[derive(Clone, Debug)]
pub struct Ladder {
    /// The requests sent at the fixed rate, one rung per server.
    pub fixed: Vec<RungRun>,
    /// Each climb's rungs, lowest rate first; the last one of a climb
    /// missed the SLO unless the climb hit [`MAX_RUNGS`].
    pub climbs: Vec<Vec<RungRun>>,
}

/// Servers the fixed-rate requests are split over.
const FIXED_SEGMENTS: usize = 3;

/// Send one rung of `n` requests at `rate` and check every response.
#[allow(clippy::too_many_arguments)]
pub fn send_rung(
    serve: &Serve,
    n: usize,
    rate: f64,
    cached: &[Cell],
    cold: &mut impl Iterator<Item = Cell>,
    conns: usize,
    rng: &mut SmallRng,
    checker: &mut Checker,
    report: &mut Report,
) -> RungRun {
    let (plan, kinds) = plan_rung(n.max(1), rate, cached, cold, rng);
    let outcomes = open_loop(&serve.addr, &plan, conns, 120_000);
    let sent = plan
        .iter()
        .zip(kinds)
        .zip(outcomes)
        .map(|((p, kind), outcome)| {
            let checked = checker.check(&p.body, kind, &outcome);
            report.op(checked.is_ok(), || {
                format!("/run {}: {}", p.body, checked.clone().unwrap_err())
            });
            Sent {
                kind,
                outcome,
                checked,
            }
        })
        .collect();
    RungRun { rate, sent }
}

/// The sustainable rate one climb found: the achieved rate of its
/// highest passing rung ([`max_rps_slo`]). A climb whose first rung
/// misses counts one step below that rung's rate.
pub fn climb_max(rungs: &[Rung], limit_ms: f64) -> f64 {
    max_rps_slo(rungs, limit_ms).unwrap_or_else(|| rungs.first().map_or(0.0, |r| r.rate / STEP))
}

/// Run a serve phase: `mix.fixed_s` seconds at the fixed rate, then
/// climbs for `mix.climb_s` seconds (the first climb always finishes; a
/// later one still climbing when time is up is dropped). A climb
/// multiplies the rate by [`STEP`] per rung until a rung misses the SLO
/// (tail latency over `limit_ms` or a growing backlog). The first climb
/// starts two steps above the fixed rate, later ones [`RESTART_STEPS`]
/// steps below the previous climb's result. At most `conns` connections
/// are in flight. Every response is checked and counted.
///
/// Each of the [`FIXED_SEGMENTS`] fixed-rate segments and each climb
/// runs against a server of its own from `start` (all over the same
/// cache): how the host places a server's threads holds for the life of
/// the process and moves its capacity by a third from one process to
/// the next, so the phase averages over several.
///
/// # Errors
/// Returns a message when a server cannot be started.
#[allow(clippy::too_many_arguments)]
pub fn ladder(
    start: &dyn Fn() -> Result<Serve, String>,
    mix: &Mix,
    cached: &[Cell],
    cold: &[Cell],
    conns: usize,
    limit_ms: f64,
    rng: &mut SmallRng,
    checker: &mut Checker,
    report: &mut Report,
) -> Result<Ladder, String> {
    let mut cold = stratified(cold, rng).into_iter();
    let n = |rate: f64, secs: f64| (rate * secs).round() as usize;
    let mut fixed = Vec::new();
    for _ in 0..FIXED_SEGMENTS {
        let serve = start()?;
        fixed.push(send_rung(
            &serve,
            n(FIXED_RATE, mix.fixed_s / FIXED_SEGMENTS as f64),
            FIXED_RATE,
            cached,
            &mut cold,
            conns,
            rng,
            checker,
            report,
        ));
    }
    let t0 = std::time::Instant::now();
    let mut climbs: Vec<Vec<RungRun>> = Vec::new();
    let mut first = FIXED_RATE * STEP * STEP;
    let time_up = |climbs: &Vec<Vec<RungRun>>| {
        !climbs.is_empty() && t0.elapsed().as_secs_f64() >= mix.climb_s
    };
    'climbs: while mix.climb_s > 0.0 && !time_up(&climbs) {
        let serve = start()?;
        let mut rungs = Vec::new();
        let mut rate = first;
        while rungs.len() < MAX_RUNGS {
            if time_up(&climbs) {
                // Out of time mid-climb: drop the unfinished climb.
                break 'climbs;
            }
            let run = send_rung(
                &serve,
                n(rate, mix.rung_s),
                rate,
                cached,
                &mut cold,
                conns,
                rng,
                checker,
                report,
            );
            let passed = run.rung().passes(limit_ms);
            rungs.push(run);
            if !passed {
                break;
            }
            rate *= STEP;
        }
        let found = climb_max(
            &rungs.iter().map(RungRun::rung).collect::<Vec<_>>(),
            limit_ms,
        );
        first = (found / STEP.powi(RESTART_STEPS)).max(FIXED_RATE);
        climbs.push(rungs);
    }
    Ok(Ladder { fixed, climbs })
}

fn rung_detail(run: &RungRun, limit_ms: f64) -> Value {
    let r = run.rung();
    let t = Timing::of(&r.latencies_ms);
    let lag = Timing::of(&run.lags());
    let count = |k: Kind| Value::U64(run.sent.iter().filter(|s| s.kind == k).count() as u64);
    Value::Map(vec![
        ("rate".to_string(), num(r.rate)),
        ("n".to_string(), Value::U64(r.latencies_ms.len() as u64)),
        ("achieved_rps".to_string(), num(r.achieved_rps())),
        ("p50_ms".to_string(), num(t.p50)),
        (
            "tail_pct".to_string(),
            t.tail_pct.map_or(Value::Str("max".to_string()), Value::F64),
        ),
        ("tail_ms".to_string(), num(t.tail)),
        (
            "backlog_growing".to_string(),
            Value::Bool(r.backlog_growing(limit_ms)),
        ),
        ("passes".to_string(), Value::Bool(r.passes(limit_ms))),
        ("lag_p50_ms".to_string(), num(lag.p50)),
        ("lag_tail_ms".to_string(), num(lag.tail)),
        ("cold".to_string(), count(Kind::Cold)),
        ("dup".to_string(), count(Kind::Dup)),
    ])
}

/// Report the end-to-end serve metrics of a phase: latency at the fixed
/// rate, scaled to the reference host speed (host `factor`, see
/// `calib`). The median over climbs of the highest rate meeting the SLO
/// goes to the detail as `max_rps_slo`, raw: on a shared 2-vCPU host its
/// run-to-run spread reaches the largest bound a gated metric may have
/// (see `README.md`).
pub fn report_ladder(report: &mut Report, ladder: &Ladder, limit_ms: f64, factor: f64) {
    let pooled: Vec<f64> = ladder
        .fixed
        .iter()
        .flat_map(|r| r.rung().latencies_ms)
        .collect();
    let fixed = Timing::of(&pooled);
    report.host_metric("run_p50_ms", fixed.p50, "ms", factor);
    report.host_metric("run_p99_ms", fixed.tail, "ms", factor);
    report.timing("run_ms_at_fixed_rate", &fixed);
    let found: Vec<f64> = ladder
        .climbs
        .iter()
        .map(|c| climb_max(&c.iter().map(RungRun::rung).collect::<Vec<_>>(), limit_ms))
        .collect();
    report.detail("max_rps_slo", num(median(&found)));
    report.detail(
        "max_rps_slo_per_climb",
        Value::Seq(found.iter().map(|&f| num(f)).collect()),
    );
    report.detail(
        "fixed_segments",
        Value::Seq(
            ladder
                .fixed
                .iter()
                .map(|r| rung_detail(r, limit_ms))
                .collect(),
        ),
    );
    report.detail(
        "climbs",
        Value::Seq(
            ladder
                .climbs
                .iter()
                .map(|c| Value::Seq(c.iter().map(|r| rung_detail(r, limit_ms)).collect()))
                .collect(),
        ),
    );
    report.detail("slo_tail_ms", num(limit_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_climb_ends_at_its_highest_passing_rung_or_one_step_below_its_start() {
        let miss = Rung {
            rate: 200.0,
            latencies_ms: vec![1e3; 100],
            span_s: 0.5,
        };
        let ok = Rung {
            rate: 100.0,
            latencies_ms: vec![2.0; 100],
            span_s: 1.0,
        };
        assert_eq!(climb_max(&[ok, miss.clone()], 150.0), 100.0);
        assert!((climb_max(&[miss], 150.0) - 200.0 / STEP).abs() < 1e-9);
    }
}
