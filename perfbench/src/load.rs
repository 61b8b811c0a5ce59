//! One run of a service workload: set-up, warm-up, fixed-rate phases,
//! and the capacity ladder, with every reply checked.
//!
//! Run shape for `--seconds S`: set-up is repeated [`SETUPS`] times (the
//! last deployment is kept), then a warm-up phase at the fixed rate,
//! then the capacity ladder, whose rungs are run [`RUNG_REPEATS`] times
//! for `S/40` each, with the [`FIXED_PHASES`] fixed-rate phases of `S/20`
//! interleaved between its steps. The ladder climbs by [`LADDER_RATIO`]
//! until a rung fails, stopping early as the open-loop experiments it
//! follows do.

use std::time::Instant;

use proto::proto::{LoadReport, Predict, Rank};
use proto::{Request, Response};

use crate::check::{decode_reply, Gate};
use crate::daemons::{Deployment, Env};
use crate::gen::{percentile, quantile, Generator, PhaseOut, Quantile, Slot};
use crate::report::{median, Metric, Outcome};
use crate::stream::{Clock, Codec, ConnStream, Frames, PhaseInput, Topology, Workload, CONNS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Runs of each capacity-ladder rung; the rung is scored by their
/// median.
const RUNG_REPEATS: usize = 3;
/// Most rungs one ladder visits.
const MAX_RUNGS: usize = 10;
/// Ratio between consecutive ladder rates.
const LADDER_RATIO: f64 = 1.15;
/// Fixed-rate phases per run; the latency and CPU metrics are medians
/// over them.
const FIXED_PHASES: usize = 8;
/// Failed share of a ladder step above which the step fails.
const ALLOWED_ERRORS: f64 = 0.001;

/// A ladder step's distance to each limit (see `Runner::score_of`).
struct Limits {
    p90: f64,
    errors: f64,
    backlog: f64,
    late: f64,
}

impl Limits {
    /// The binding ratio: the step passes when it is at most 1.
    fn worst(&self) -> f64 {
        self.binding().1
    }

    /// The name and value of the binding ratio.
    fn binding(&self) -> (&'static str, f64) {
        [("p90", self.p90), ("errors", self.errors), ("backlog", self.backlog), ("late", self.late)]
            .into_iter()
            .fold(("p90", f64::MIN), |a, b| if b.1 > a.1 { b } else { a })
    }
}

/// What one phase contributed, after its replies were checked.
struct Scored {
    out: PhaseOut,
    lat: Vec<u64>,
    failed: u64,
    cpu_us: u64,
}

impl Scored {
    fn q(&self, q: f64) -> Quantile {
        quantile(&self.lat, q)
    }

    fn late_ns(&self, q: f64) -> u64 {
        let mut late = self.out.late_ns.clone();
        late.sort_unstable();
        percentile(&late, q)
    }
}

/// Everything a run needs while it is going.
struct Runner<'a> {
    w: Workload,
    env: &'a Env,
    streams: Vec<ConnStream>,
    clock: Clock,
    gate: Gate,
    attempted: u64,
    log: Vec<String>,
}

impl Runner<'_> {
    /// Whether the generator fell behind: its p90 send lateness exceeds
    /// a quarter of the latency limit.
    fn behind(&self, s: &Scored) -> bool {
        self.score_of(s).late > 1.0
    }

    /// How close a step came to each limit, as ratios that pass at or
    /// below 1: p90 against the latency limit; failed share against the
    /// allowed share; the mean latency of the last quarter of the step's
    /// requests against the limit (a backlog that grows through the step
    /// ends there, while a passing stall is averaged out); and generator
    /// lateness. A ladder step passes when the worst ratio is at most 1.
    fn score_of(&self, s: &Scored) -> Limits {
        let limit_ns = self.w.p90_limit_us * 1e3;
        let sent = s.out.sent.max(1) as f64;
        let tail = &s.out.lat_by_slot[s.out.lat_by_slot.len() * 3 / 4..];
        let answered: Vec<f64> =
            tail.iter().filter(|&&l| l != u64::MAX).map(|&l| l as f64).collect();
        let tail_mean = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
        Limits {
            p90: s.q(0.9).value as f64 / limit_ns,
            errors: s.failed as f64 / (ALLOWED_ERRORS * sent),
            backlog: tail_mean / limit_ns,
            late: s.late_ns(0.9) as f64 / (limit_ns / 4.0),
        }
    }

    fn phase(
        &mut self,
        dep: &Deployment,
        gen: &mut Generator,
        label: &str,
        rate: f64,
        secs: f64,
    ) -> Result<Scored, String> {
        // At least one request per connection.
        let n = ((rate * secs) as usize).max(CONNS);
        let input = PhaseInput::generate(&mut self.streams, &mut self.clock, self.w.codec, n);
        let cpu0 = dep.cpu_us().map_err(|e| format!("reading daemon CPU: {e}"))?;
        let out = gen.run(&input.wire, Some(rate)).map_err(|e| format!("{label}: {e}"))?;
        let cpu1 = dep.cpu_us().map_err(|e| format!("reading daemon CPU: {e}"))?;
        let scored = self.score(&input, out, cpu1.saturating_sub(cpu0));
        let p50 = scored.q(0.5);
        let p90 = scored.q(0.9);
        let p99 = scored.q(0.99);
        self.log.push(format!(
            "phase {label:<10} rate {rate:>9.0}/s  sent {:>7}  p50 {:>8.1} us  p90 {:>8.1} us  \
             p99 {:>9.1} us ({} beyond of {})  backlog {:>5}  late p99 {:>7.1} us  \
             gen cpu {:>4.0}%  failed {}  daemon cpu/op {:.2} us  binding {} {:.2}",
            scored.out.sent,
            p50.value as f64 / 1e3,
            p90.value as f64 / 1e3,
            p99.value as f64 / 1e3,
            p99.beyond,
            p99.samples,
            scored.out.backlog_at_end,
            scored.late_ns(0.99) as f64 / 1e3,
            100.0 * scored.out.gen_cpu_s / scored.out.wall_s.max(1e-9),
            scored.failed,
            scored.cpu_us as f64 / scored.out.answered().max(1) as f64,
            self.score_of(&scored).binding().0,
            self.score_of(&scored).binding().1,
        ));
        Ok(scored)
    }

    fn score(&mut self, input: &PhaseInput, out: PhaseOut, cpu_us: u64) -> Scored {
        let before = self.gate.failed;
        for (c, reqs) in input.reqs.iter().enumerate() {
            self.gate.check_conn(self.w.codec, reqs, &out.replies[c]);
        }
        self.attempted += input.len() as u64;
        let lat = out.sorted_latencies();
        Scored { failed: self.gate.failed - before, out, lat, cpu_us }
    }
}

impl Runner<'_> {
    /// One fixed-rate phase, appended to `fixed`.
    fn fixed_phase(
        &mut self,
        dep: &Deployment,
        gen: &mut Generator,
        fixed: &mut Vec<Scored>,
        secs: f64,
    ) -> Result<(), String> {
        let label = format!("fixed#{}", fixed.len());
        fixed.push(self.phase(dep, gen, &label, self.w.fixed_rate, secs)?);
        Ok(())
    }

    /// The capacity ladder: a fixed grid of rates from the workload's
    /// start, [`LADDER_RATIO`] apart. Every rung is run [`RUNG_REPEATS`] times
    /// and scored by the median of its binding limit ratios; the ladder
    /// climbs until a rung fails (descending first if the start rung
    /// fails) and stops there. The capacity is where the median ratio
    /// crosses 1 between the highest passing and lowest failing rungs.
    ///
    /// Until `fixed` holds [`FIXED_PHASES`] phases, a fixed-rate phase of
    /// `fixed_s` follows every ladder step, so the fixed-rate samples are
    /// spread over the whole run and a slow spell of the machine moves
    /// only a few of them.
    fn ladder(
        &mut self,
        dep: &Deployment,
        gen: &mut Generator,
        step_s: f64,
        fixed: &mut Vec<Scored>,
        fixed_s: f64,
    ) -> Result<f64, String> {
        let w = self.w;
        let (mut pass, mut fail) = (None::<(f64, f64)>, None::<(f64, f64)>);
        let mut rung = 0i32;
        for _ in 0..MAX_RUNGS {
            let rate = w.ladder_start * LADDER_RATIO.powi(rung);
            let mut ratios = Vec::with_capacity(RUNG_REPEATS);
            for k in 0..RUNG_REPEATS {
                let s = self.phase(dep, gen, &format!("rung{rung:+}#{k}"), rate, step_s)?;
                ratios.push(self.score_of(&s).worst());
                if fixed.len() < FIXED_PHASES {
                    self.fixed_phase(dep, gen, fixed, fixed_s)?;
                }
            }
            let ratio = median(ratios);
            if ratio <= 1.0 {
                pass = Some((rate, ratio));
                if fail.is_some() {
                    break;
                }
                rung += 1;
            } else {
                fail = Some((rate, ratio));
                if pass.is_some() {
                    break;
                }
                rung -= 1;
            }
        }
        Ok(match (pass, fail) {
            (Some((lo, s_lo)), Some((hi, s_hi))) => crossing(lo, s_lo, hi, s_hi),
            (Some((lo, _)), None) => {
                self.log.push("the ladder never failed: capacity_rps is a lower bound".to_string());
                lo
            }
            (None, _) => 0.0,
        })
    }
}

/// The rate at which the binding limit ratio crosses 1, interpolated in
/// log-log between the highest passing step `(lo, s_lo)` and the lowest
/// failing one `(hi, s_hi)`; it always lies in `[lo, hi)`.
fn crossing(lo: f64, s_lo: f64, hi: f64, s_hi: f64) -> f64 {
    let (a, b) = (s_lo.max(1e-6).ln(), s_hi.max(1e-6).ln());
    if b <= a || a >= 0.0 {
        return lo;
    }
    let f = ((0.0 - a) / (b - a)).clamp(0.0, 1.0);
    (lo.ln() + f * (hi.ln() - lo.ln())).exp()
}

/// Attempts at placing the connections on distinct event loops.
const PLACEMENT_TRIES: usize = 32;

/// Whether connections 0 and 1 of `gen` are served by the same predictd
/// event loop. Only the loop that accepts a machine's `load_report`
/// holds a replica of it, and a replica warms its own profile cache: so
/// after connection 0 reports a fresh machine and predicts on it once,
/// a predict on connection 1 is a cache hit exactly when it reaches the
/// same replica. The probe machine is never named by the workload.
fn same_loop(
    gen: &mut Generator,
    codec: Codec,
    clock: &mut Clock,
    attempt: usize,
) -> Result<bool, String> {
    let machine = format!("placement-probe-{attempt}");
    let at = clock.tick();
    let task = crate::stream::ConnStream::probe_task();
    let predict = Request::Predict(Predict {
        machine: machine.clone(),
        now: clock.tick(),
        task,
        j_words: 500,
    });
    let report = Request::LoadReport(LoadReport { machine, at, load: 2.0, comm_frac: -1.0 });
    let mut first = Frames::default();
    first.push_request(codec, &report);
    first.push_request(codec, &predict);
    gen.run(&[first, Frames::default()], None).map_err(|e| format!("placement probe: {e}"))?;
    let mut second = Frames::default();
    second.push_request(codec, &predict);
    let out =
        gen.run(&[Frames::default(), second], None).map_err(|e| format!("placement probe: {e}"))?;
    match decode_reply(codec, out.replies[1].get(0)) {
        Ok(Response::Prediction(p)) => Ok(p.cache_hit),
        other => Err(format!("placement probe: unexpected reply {other:?}")),
    }
}

/// Whether connections 0 and 1 of `gen` are served by the same
/// predictgw event loop. A gateway loop blocks on each backend round
/// trip, so when connection 0 sends one slow `rank` (6561 schedules)
/// and connection 1 a `predict` just after, the `predict` overtakes
/// the `rank` exactly when another loop serves it. The two probe
/// machines hash to different backends, so the backends never queue
/// one behind the other.
fn same_gateway_loop(
    gen: &mut Generator,
    codec: Codec,
    clock: &mut Clock,
    attempt: usize,
) -> Result<bool, String> {
    let ring = predictgw::Ring::new(2, predictgw::GatewayConfig::default().vnodes);
    let slow = format!("placement-probe-{attempt}");
    let fast = (0..)
        .map(|i| format!("placement-probe-{attempt}-{i}"))
        .find(|m| ring.owner(m) != ring.owner(&slow))
        .expect("a two-backend ring owns names on both backends");
    let now = clock.tick();
    let rank = Request::Rank(Rank {
        machine: slow,
        now,
        workflow: ConnStream::probe_workflow(8),
        front_end: 0,
        j_words: 500,
        limit: 1,
    });
    let predict = Request::Predict(Predict {
        machine: fast,
        now,
        task: ConnStream::probe_task(),
        j_words: 500,
    });
    let (mut first, mut second) = (Frames::default(), Frames::default());
    first.push_request(codec, &rank);
    second.push_request(codec, &predict);
    let schedule = [Slot { conn: 0, k: 0, due: 0 }, Slot { conn: 1, k: 0, due: 200_000 }];
    let out = gen
        .run_schedule(&[first, second], &schedule, 0)
        .map_err(|e| format!("placement probe: {e}"))?;
    if out.timeouts > 0 {
        return Err("placement probe: no reply".to_string());
    }
    // Arrival times relative to the phase start.
    let arrival = |i: usize| schedule[i].due + out.lat_by_slot[i];
    Ok(arrival(1) >= arrival(0))
}

/// Connects the generator so that its two connections land on different
/// event loops of the front daemon (one per CPU): which loop accepts a
/// connection is up to the kernel, and runs where both shared one loop
/// measured a different deployment. Returns the generator and how many
/// connection pairs it took.
fn connect_placed(
    dep: &Deployment,
    w: Workload,
    clock: &mut Clock,
) -> Result<(Generator, usize), String> {
    for attempt in 0..PLACEMENT_TRIES {
        let mut gen =
            Generator::connect(dep.front, CONNS, w.codec).map_err(|e| format!("connect: {e}"))?;
        let same = match w.topology {
            Topology::Single => same_loop(&mut gen, w.codec, clock, attempt)?,
            Topology::Gateway => same_gateway_loop(&mut gen, w.codec, clock, attempt)?,
        };
        if !same {
            return Ok((gen, attempt + 1));
        }
    }
    Err(format!("{PLACEMENT_TRIES} connection pairs all landed on one event loop"))
}

/// Runs service workload `w` for about `seconds` of measurement.
pub fn run(w: Workload, seed: u64, seconds: f64, env: &Env) -> Result<Outcome, String> {
    let mut r = Runner {
        w,
        env,
        streams: (0..CONNS).map(|c| ConnStream::new(w, seed, c)).collect(),
        clock: Clock::default(),
        gate: Gate::default(),
        attempted: 0,
        log: Vec::new(),
    };
    let warm = PhaseInput::warm(&mut r.streams, &mut r.clock, w.codec);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for k in 0..SETUPS {
        // Set-up time is spawn-to-ready plus the warm-up reports; placing
        // the generator's connections is the benchmark's own business.
        let t0 = Instant::now();
        let dep = Deployment::start(w.topology, r.env, &format!("{}-{k}", w.name))
            .map_err(|e| format!("set-up {k}: {e}"))?;
        let ready_s = t0.elapsed().as_secs_f64();
        let last = k + 1 == SETUPS;
        let (mut gen, pairs) = if last {
            connect_placed(&dep, w, &mut r.clock).map_err(|e| format!("set-up {k}: {e}"))?
        } else {
            (
                Generator::connect(dep.front, CONNS, w.codec)
                    .map_err(|e| format!("set-up {k}: {e}"))?,
                1,
            )
        };
        let t1 = Instant::now();
        let out = gen.run(&warm.wire, None).map_err(|e| format!("set-up {k}: warm: {e}"))?;
        setup_s.push(ready_s + t1.elapsed().as_secs_f64());
        r.log.push(format!(
            "set-up {k}: {:.2} ms, {pairs} connection pair(s) to place",
            setup_s[k] * 1e3
        ));
        if out.answered() != warm.len() {
            return Err(format!(
                "set-up {k}: {} of {} warm reports answered",
                out.answered(),
                warm.len()
            ));
        }
        if !last {
            dep.stop().map_err(|e| format!("set-up {k}: stop: {e}"))?;
        } else {
            kept = Some((dep, gen, out));
        }
    }
    let (dep, mut gen, warm_out) = kept.expect("SETUPS > 0");
    r.score(&warm, warm_out, 0);

    let slice = seconds / 20.0;
    r.phase(&dep, &mut gen, "warm-up", w.fixed_rate, slice)?;
    let mut fixed = Vec::with_capacity(FIXED_PHASES);
    r.fixed_phase(&dep, &mut gen, &mut fixed, slice)?;
    // Memory at the fixed rate, before the ladder's overload steps can
    // grow buffers.
    let hwm_kb = dep.hwm_kb().map_err(|e| format!("reading daemon memory: {e}"))?;
    let capacity = r.ladder(&dep, &mut gen, seconds / 40.0, &mut fixed, slice)?;
    while fixed.len() < FIXED_PHASES {
        r.fixed_phase(&dep, &mut gen, &mut fixed, slice)?;
    }

    dep.stop().map_err(|e| format!("stopping daemons: {e}"))?;

    let scored: Vec<&Scored> = fixed.iter().filter(|s| !r.behind(s)).collect();
    if scored.is_empty() {
        return Err("the generator fell behind in every fixed-rate phase".to_string());
    }
    let us = |q: f64| median(scored.iter().map(|s| s.q(q).value as f64 / 1e3).collect());
    let cpu =
        median(scored.iter().map(|s| s.cpu_us as f64 / s.out.answered().max(1) as f64).collect());
    let mut all_late: Vec<u64> = fixed.iter().flat_map(|s| s.out.late_ns.iter().copied()).collect();
    all_late.sort_unstable();
    let mut all_lat: Vec<u64> = scored.iter().flat_map(|s| s.lat.iter().copied()).collect();
    all_lat.sort_unstable();
    let gen_cpu: f64 = fixed.iter().map(|s| s.out.gen_cpu_s).sum::<f64>()
        / fixed.iter().map(|s| s.out.wall_s).sum::<f64>().max(1e-9);
    let p50 = quantile(&all_lat, 0.5);
    let p90 = quantile(&all_lat, 0.9);
    let p99 = quantile(&all_lat, 0.99);
    let p999 = quantile(&all_lat, 0.999);
    r.log.push(format!(
        "fixed-rate pooled: p50 {:.1} us, p90 {:.1} us ({} beyond of {}), generator tail \
         p99 {:.1} us ({} beyond), p99.9 {:.1} us ({} beyond); {} of {} phases scored",
        p50.value as f64 / 1e3,
        p90.value as f64 / 1e3,
        p90.beyond,
        p90.samples,
        p99.value as f64 / 1e3,
        p99.beyond,
        p999.value as f64 / 1e3,
        p999.beyond,
        scored.len(),
        fixed.len(),
    ));
    let metrics = vec![
        Metric::new("setup_s", median(setup_s), "s"),
        Metric::new("latency_p50_us", us(0.5), "us"),
        Metric::new("cpu_us_per_op", cpu, "us"),
        Metric::new("peak_rss_mb", hwm_kb as f64 / 1024.0, "MiB"),
    ];
    // Printed by name but not gated: on a shared 2-CPU VM both follow
    // how much CPU the host leaves the guest more than the program.
    let extra = vec![
        Metric::new("latency_p90_us", us(0.9), "us"),
        Metric::new("capacity_rps", capacity, "1/s"),
        Metric::new("error_rate", r.gate.failed as f64 / r.attempted.max(1) as f64, "fraction"),
        Metric::new(
            "generator.max_late_ms",
            all_late.last().copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        ),
        Metric::new("generator.cpu_frac", gen_cpu, "fraction"),
        Metric::new("generator.tail_p99_us", p99.value as f64 / 1e3, "us"),
        Metric::new("generator.tail_p999_us", p999.value as f64 / 1e3, "us"),
    ];
    Ok(Outcome {
        attempted: r.attempted,
        failed: r.gate.failed,
        metrics,
        extra,
        log: r.log,
        failures: r.gate.examples,
    })
}

#[cfg(test)]
mod tests {
    use super::crossing;

    #[test]
    fn crossing_interpolates_inside_the_bracket() {
        let c = crossing(100.0, 0.5, 200.0, 2.0);
        assert!((c - 141.421).abs() < 0.01, "{c}");
        assert_eq!(crossing(100.0, 1.0, 200.0, 2.0), 100.0);
        assert_eq!(crossing(100.0, 0.5, 200.0, 0.4), 100.0);
    }
}
