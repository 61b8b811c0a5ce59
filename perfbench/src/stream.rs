//! Workload definitions and their seeded request streams.
//!
//! Each service workload splits its machines between the generator's
//! connections; a connection only ever names its own machines, so the
//! per-machine request order a daemon sees is the order one connection
//! sent — which is what lets an in-process reference replay each
//! connection's stream on its own and still predict every answer.
//!
//! One [`Clock`] stamps every request of a run (`at` for reports, `now`
//! for queries) and only moves forward, across warm-up, fixed-rate and
//! capacity phases alike, so no `load_report` is ever rejected for going
//! back in time.

use contention_model::dataset::DataSet;
use contention_model::predict::ParagonTask;
use contention_model::units::secs;
use hetsched::task::{Matrix, Task, Workflow};
use proto::proto::{DecideBatch, LoadReport, Predict, Rank};
use proto::{binproto, Request};

/// Connections the generator drives (one per CPU of the reference box).
pub const CONNS: usize = 2;

/// Which wire codec a workload's connections speak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// Newline-delimited JSON.
    Json,
    /// Length-prefixed binary frames after the 4-byte preamble.
    Binary,
}

/// The daemons a service workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One evented predictd with its default worker count.
    Single,
    /// predictgw (journal on) in front of two one-loop predictd backends.
    Gateway,
}

/// One request kind in a workload's repeating cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `load_report`.
    Report,
    /// `predict`.
    Predict,
    /// `decide_batch` of [`BATCH`] tasks.
    Batch,
    /// `rank` of a 3-machine, 5-task workflow.
    Rank,
}

/// Tasks per `decide_batch`.
pub const BATCH: usize = 8;
/// Schedules a `rank` returns (all 243 are evaluated).
pub const RANK_LIMIT: usize = 8;

/// A service workload: daemons, traffic mix and the rates it runs at.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Daemons under test.
    pub topology: Topology,
    /// Wire codec.
    pub codec: Codec,
    /// Machines, split between the connections.
    pub machines: usize,
    /// The repeating request-kind cycle of each connection.
    pub cycle: &'static [Kind],
    /// Seeded loads that move the contender count on most reports, as
    /// opposed to one constant load per machine.
    pub churn: bool,
    /// Offered rate of the latency/CPU phases, requests per second.
    pub fixed_rate: f64,
    /// First rate of the capacity ladder.
    pub ladder_start: f64,
    /// p90 latency limit a capacity step must meet, microseconds.
    pub p90_limit_us: f64,
}

const STEADY_CYCLE: &[Kind] = &[Kind::Report, Kind::Predict, Kind::Predict, Kind::Predict];
const CHURN_CYCLE: &[Kind] = &[
    Kind::Report,
    Kind::Predict,
    Kind::Batch,
    Kind::Report,
    Kind::Rank,
    Kind::Report,
    Kind::Predict,
    Kind::Batch,
];
const FANOUT_CYCLE: &[Kind] =
    &[Kind::Report, Kind::Predict, Kind::Predict, Kind::Predict, Kind::Batch];

/// The service workloads.
pub const SERVICE_WORKLOADS: [Workload; 3] = [
    Workload {
        name: "steady_predict",
        topology: Topology::Single,
        codec: Codec::Binary,
        machines: 64,
        cycle: STEADY_CYCLE,
        churn: false,
        fixed_rate: 50_000.0,
        ladder_start: 250_000.0,
        p90_limit_us: 1_000.0,
    },
    Workload {
        name: "churn_schedule",
        topology: Topology::Single,
        codec: Codec::Json,
        machines: 512,
        cycle: CHURN_CYCLE,
        churn: true,
        fixed_rate: 8_000.0,
        ladder_start: 30_000.0,
        p90_limit_us: 2_000.0,
    },
    Workload {
        name: "gateway_fanout",
        topology: Topology::Gateway,
        codec: Codec::Binary,
        machines: 64,
        cycle: FANOUT_CYCLE,
        churn: false,
        fixed_rate: 5_000.0,
        ladder_start: 18_000.0,
        p90_limit_us: 2_000.0,
    },
];

/// The service workload called `name`, if any.
pub fn service_workload(name: &str) -> Option<Workload> {
    SERVICE_WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform on the grid `lo, lo + 1/100, ...` below `hi`, so values
    /// print short in JSON and survive every codec bit for bit.
    pub fn hundredths(&mut self, lo: f64, hi: f64) -> f64 {
        // Spans are a few hundred units at most; the product fits.
        let steps = ((hi - lo) * 100.0) as u64;
        lo + self.below(steps.max(1)) as f64 / 100.0
    }

    /// A random 3-machine chain of `n` tasks (`3^n` schedules).
    pub fn workflow(&mut self, n: usize) -> Workflow {
        const MACHINES: usize = 3;
        let mut tasks = Vec::with_capacity(n);
        for t in 0..n {
            let exec: Vec<f64> = (0..MACHINES).map(|_| self.hundredths(1.0, 40.0)).collect();
            let name = format!("t{t}");
            if t + 1 == n {
                tasks.push(Task::terminal(name, exec));
            } else {
                let rows: Vec<Vec<f64>> = (0..MACHINES)
                    .map(|a| {
                        (0..MACHINES)
                            .map(|b| if a == b { 0.0 } else { self.hundredths(0.5, 10.0) })
                            .collect()
                    })
                    .collect();
                tasks.push(Task::with_edge(name, exec, Matrix::from_rows(&rows)));
            }
        }
        Workflow::new(tasks)
    }
}

/// The run-wide logical clock: one tick per generated request, in units
/// of 1/1024 s so every stamp is exact in binary and in JSON.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    ticks: u64,
}

impl Clock {
    /// The next timestamp, strictly after every earlier one.
    pub fn tick(&mut self) -> f64 {
        self.ticks += 1;
        self.ticks as f64 / 1024.0
    }
}

/// One connection's request stream.
#[derive(Debug, Clone)]
pub struct ConnStream {
    workload: Workload,
    machines: Vec<String>,
    /// Constant per-machine load (steady workloads).
    loads: Vec<f64>,
    rng: Rng,
    pos: usize,
}

impl ConnStream {
    /// Connection `conn`'s stream of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, conn: usize) -> Self {
        let mut rng = Rng::new(seed, conn as u64 + 1);
        let machines: Vec<String> = (0..workload.machines)
            .filter(|m| m % CONNS == conn)
            .map(|m| format!("{}-m{m:03}", &workload.name[..5]))
            .collect();
        let loads = machines.iter().map(|_| (1 + rng.below(12)) as f64).collect();
        ConnStream { workload, machines, loads, rng, pos: 0 }
    }

    /// This connection's machines.
    pub fn machines(&self) -> &[String] {
        &self.machines
    }

    /// A first `load_report` for machine `i` of this connection: the
    /// set-up traffic that makes every machine known before timing.
    pub fn warm_report(&mut self, i: usize, at: f64) -> Request {
        self.report(i, at)
    }

    fn report(&mut self, i: usize, at: f64) -> Request {
        let machine = self.machines[i].clone();
        let (load, comm_frac) = if self.workload.churn {
            (self.rng.hundredths(0.0, 64.0), self.rng.hundredths(0.0, 1.0))
        } else {
            // A negative fraction leaves the tracked one unchanged, so
            // the forecast shape is fixed after the first report.
            (self.loads[i], -1.0)
        };
        Request::LoadReport(LoadReport { machine, at, load, comm_frac })
    }

    /// A fixed task for probes outside the seeded stream.
    pub fn probe_task() -> ParagonTask {
        ParagonTask {
            dcomp_sun: secs(20.0),
            t_paragon: secs(5.0),
            to_backend: vec![DataSet::burst(10, 2000)],
            from_backend: vec![DataSet::single(1000)],
        }
    }

    fn task(&mut self) -> ParagonTask {
        ParagonTask {
            dcomp_sun: secs(self.rng.hundredths(5.0, 60.0)),
            t_paragon: secs(self.rng.hundredths(1.0, 12.0)),
            to_backend: vec![DataSet::burst(1 + self.rng.below(20), 100 + self.rng.below(4000))],
            from_backend: vec![DataSet::single(100 + self.rng.below(2000))],
        }
    }

    fn j_words(&mut self) -> u64 {
        [1, 500, 1000][self.rng.below(3) as usize]
    }

    /// A fixed 3-machine workflow of `tasks` tasks (`3^tasks` schedules)
    /// for probes outside the seeded stream.
    pub fn probe_workflow(tasks: usize) -> Workflow {
        Rng::new(0, 0).workflow(tasks)
    }

    fn workflow(&mut self) -> Workflow {
        self.rng.workflow(5)
    }

    /// The next request of the cycle, stamped `now`.
    pub fn next(&mut self, now: f64) -> Request {
        let kind = self.workload.cycle[self.pos % self.workload.cycle.len()];
        self.pos += 1;
        let i = self.rng.below(self.machines.len() as u64) as usize;
        let machine = self.machines[i].clone();
        match kind {
            Kind::Report => self.report(i, now),
            Kind::Predict => {
                let task = self.task();
                let j_words = self.j_words();
                Request::Predict(Predict { machine, now, task, j_words })
            }
            Kind::Batch => {
                let tasks = (0..BATCH).map(|_| self.task()).collect();
                let j_words = self.j_words();
                Request::DecideBatch(DecideBatch { machine, now, tasks, j_words })
            }
            Kind::Rank => {
                let workflow = self.workflow();
                let front_end = self.rng.below(3) as usize;
                let j_words = self.j_words();
                Request::Rank(Rank {
                    machine,
                    now,
                    workflow,
                    front_end,
                    j_words,
                    limit: RANK_LIMIT,
                })
            }
        }
    }
}

/// Encoded messages stored back to back: one allocation per phase
/// instead of one per message.
#[derive(Debug, Default, Clone)]
pub struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    /// Number of stored messages.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Message `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// Appends one message.
    pub fn push(&mut self, msg: &[u8]) {
        self.bytes.extend_from_slice(msg);
        self.ends.push(self.bytes.len());
    }

    /// Appends one request in `codec`'s wire form (frame prefix or
    /// trailing newline included).
    pub fn push_request(&mut self, codec: Codec, req: &Request) {
        match codec {
            Codec::Binary => {
                // Generated requests are far below the frame limits.
                let ok = binproto::encode_request(req, &mut self.bytes);
                debug_assert!(ok, "generated request exceeds frame limits");
            }
            Codec::Json => {
                let line = serde_json::to_string(req).expect("generated requests serialize");
                self.bytes.extend_from_slice(line.as_bytes());
                self.bytes.push(b'\n');
            }
        }
        self.ends.push(self.bytes.len());
    }
}

/// The requests of one phase: per connection, the decoded requests (for
/// the reference) and their encoded wire form (for the generator).
#[derive(Debug, Default)]
pub struct PhaseInput {
    /// Requests per connection, in send order.
    pub reqs: Vec<Vec<Request>>,
    /// The same requests encoded, per connection.
    pub wire: Vec<Frames>,
}

impl PhaseInput {
    /// Generates `n` requests dealt round-robin over the connections —
    /// global request `i` goes to connection `i % CONNS` — stamped by the
    /// shared clock in send order.
    pub fn generate(streams: &mut [ConnStream], clock: &mut Clock, codec: Codec, n: usize) -> Self {
        let mut input = PhaseInput {
            reqs: vec![Vec::with_capacity(n / CONNS + 1); streams.len()],
            wire: vec![Frames::default(); streams.len()],
        };
        for i in 0..n {
            let c = i % streams.len();
            let req = streams[c].next(clock.tick());
            input.wire[c].push_request(codec, &req);
            input.reqs[c].push(req);
        }
        input
    }

    /// One warm-up report per machine on its own connection, all due at
    /// once: the set-up traffic.
    pub fn warm(streams: &mut [ConnStream], clock: &mut Clock, codec: Codec) -> Self {
        let mut input = PhaseInput {
            reqs: vec![Vec::new(); streams.len()],
            wire: vec![Frames::default(); streams.len()],
        };
        for (c, s) in streams.iter_mut().enumerate() {
            for i in 0..s.machines().len() {
                let req = s.warm_report(i, clock.tick());
                input.wire[c].push_request(codec, &req);
                input.reqs[c].push(req);
            }
        }
        input
    }

    /// Total requests across connections.
    pub fn len(&self) -> usize {
        self.reqs.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(req: &Request) -> f64 {
        match req {
            Request::LoadReport(r) => r.at,
            Request::Predict(q) => q.now,
            Request::DecideBatch(q) => q.now,
            Request::Rank(q) => q.now,
            Request::Stats | Request::Shutdown => f64::NAN,
        }
    }

    #[test]
    fn timestamps_keep_increasing_across_phases() {
        let w = service_workload("churn_schedule").expect("workload");
        let mut streams: Vec<_> = (0..CONNS).map(|c| ConnStream::new(w, 7, c)).collect();
        let mut clock = Clock::default();
        let phases = [
            PhaseInput::warm(&mut streams, &mut clock, w.codec),
            PhaseInput::generate(&mut streams, &mut clock, w.codec, 300),
            PhaseInput::generate(&mut streams, &mut clock, w.codec, 300),
        ];
        for c in 0..CONNS {
            let stamps: Vec<f64> =
                phases.iter().flat_map(|p| p.reqs[c].iter().map(stamp)).collect();
            assert!(stamps.windows(2).all(|w| w[0] < w[1]), "conn {c} went back in time");
        }
    }

    #[test]
    fn same_seed_same_stream_and_connections_own_disjoint_machines() {
        let w = service_workload("steady_predict").expect("workload");
        let gen = |seed| {
            let mut streams: Vec<_> = (0..CONNS).map(|c| ConnStream::new(w, seed, c)).collect();
            PhaseInput::generate(&mut streams, &mut Clock::default(), w.codec, 64).wire
        };
        assert_eq!(gen(3)[0].bytes, gen(3)[0].bytes);
        assert_ne!(gen(3)[0].bytes, gen(4)[0].bytes);
        let a = ConnStream::new(w, 3, 0);
        let b = ConnStream::new(w, 3, 1);
        assert!(a.machines().iter().all(|m| !b.machines().contains(m)));
        assert_eq!(a.machines().len() + b.machines().len(), w.machines);
    }

    #[test]
    fn both_codecs_carry_the_same_requests() {
        for w in SERVICE_WORKLOADS {
            let mut s = ConnStream::new(w, 11, 0);
            let mut clock = Clock::default();
            for _ in 0..(2 * w.cycle.len()) {
                let req = s.next(clock.tick());
                let mut bin = Frames::default();
                bin.push_request(Codec::Binary, &req);
                let mut json = Frames::default();
                json.push_request(Codec::Json, &req);
                let from_bin = binproto::decode_request(&bin.get(0)[4..]).expect("binary");
                let line = std::str::from_utf8(json.get(0)).expect("utf8").trim_end();
                let from_json: Request = serde_json::from_str(line).expect("json");
                assert_eq!(from_bin, req);
                assert_eq!(from_json, req);
            }
        }
    }
}
