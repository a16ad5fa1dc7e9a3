//! The cluster master's decisions, as one pure state machine: the
//! range ledger and exactly-once commit, `Results` validation,
//! per-stage attempt budgets and `retries`, backoff, fault-plan charges,
//! round-robin reassignment and the master-local fallback. It does no
//! I/O, reads no clock and holds no connection or thread; the loop in
//! `runner.rs` performs each [`Action`] and feeds back an [`Event`].
//!
//! Each action takes the next *dispatch number* and each event carries
//! the number it answers; an event whose number is not its node's
//! latest is stale, dropped by that rule alone. A failure retires its
//! number, so nothing a failed dispatch sent can count; a duplicate
//! `Results` of a committed dispatch still carries the live number, and
//! the ledger refuses it.

use std::time::Duration;

use pdtl_core::PhaseReport;
use pdtl_io::diskfault::{DiskFaultKind, DiskFaultSpec};

use crate::error::{ClusterError, Result};
use crate::fault::ResolvedFaults;
use crate::message::{Message, NodeDirectives, NodeFault, WorkerConfig, WorkerSummary};
use crate::report::{ClusterReport, NetSnapshot, NodeReport};
use crate::runner::ClusterConfig;

/// What happened on a node: `(node, dispatch number answered, what)`.
pub(crate) type Event = (usize, u64, What);

/// What to do for a node: `(node, number its answer carries, what)`.
pub(crate) type Action = (usize, u64, Do);

pub(crate) enum What {
    /// The replica copy landed (wall time, bytes), or why it did not.
    Copied(std::result::Result<(Duration, u64), String>),
    /// A frame from the node, and how long its dispatch has run.
    Frame(Message, Duration),
    /// A disconnect, a `Config` that would not go out, or silence past
    /// the node deadline.
    Lost(String),
    /// The backoff has been waited out.
    Woke,
}

pub(crate) enum Do {
    /// Copy the oriented graph to this base, apply the injected
    /// corruption and verify it; answer [`What::Copied`].
    Copy(String, Option<DiskFaultSpec>),
    /// Send this `Config` over the node's idle connection or a fresh one
    /// (in-process when `true`); answer [`What::Lost`] if it fails.
    Dispatch(Message, bool),
    /// Drop the node's connection.
    Retire,
    /// Answer [`What::Woke`] once this backoff has passed.
    Wait(Duration),
}

/// A node's current stage: what each of its attempts does.
#[derive(Default)]
enum Task {
    #[default]
    Copy,
    /// Count these global ranges; with `true` (the node's own ranges)
    /// each dispatch consumes fault-plan charges. Reassigned ranges
    /// never do: the plan models remote hosts failing, not the
    /// recovery path or the master's own process.
    Count(Vec<usize>, bool),
}

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
enum State {
    Busy,
    /// Failed with attempts left; waiting out the backoff.
    Backoff,
    /// Done; the connection stays open for reassigned ranges.
    Idle,
    /// Out of attempts at some stage.
    #[default]
    Dead,
}

/// One node's account across all its attempts.
#[derive(Default)]
struct Slot {
    /// Number of the latest action issued to the node.
    dispatch: u64,
    task: Task,
    state: State,
    /// Attempts at the current stage.
    attempts: u32,
    /// Triangles of the latest dispatch, listed only once its `Results`
    /// commit.
    triples: Vec<(u32, u32, u32)>,
    summaries: Vec<WorkerSummary>,
    /// Busy wall time summed over committed dispatches.
    wall: Duration,
    /// Wall time and size of the replica copy that landed.
    copy: (Duration, u64),
    /// Ranges absorbed from failed peers.
    reassigned: u64,
    last_error: String,
}

pub(crate) struct Master<'a> {
    cfg: &'a ClusterConfig,
    /// The fault plan's remaining charges.
    faults: ResolvedFaults,
    /// Each node's replica; node 0's is the master's original.
    bases: Vec<String>,
    /// All `N·P` ranges as `(start, end)` pairs, by global index.
    ranges: Vec<(u64, u64)>,
    /// Exactly-once ledger: `completed[g]` is set when range `g`'s
    /// summary commits, and checked before any commit.
    completed: Vec<bool>,
    slots: Vec<Slot>,
    listed: Option<Vec<(u32, u32, u32)>>,
    issued: u64,
    retries: u64,
    /// Node 0, failed, has been revived as the master-local fallback
    /// (in-process, on the master's original) because no node survived.
    fallback: bool,
}

impl<'a> Master<'a> {
    /// A master for `ranges` on nodes whose replicas live at `bases`.
    pub fn new(cfg: &'a ClusterConfig, ranges: Vec<(u64, u64)>, bases: Vec<String>) -> Self {
        Master {
            cfg,
            faults: cfg.fault.resolve(cfg.nodes),
            slots: bases.iter().map(|_| Slot::default()).collect(),
            bases,
            completed: vec![false; ranges.len()],
            ranges,
            listed: cfg.listing.then(Vec::new),
            issued: 0,
            retries: 0,
            fallback: false,
        }
    }

    /// The opening moves: node 0 counts its ranges on the master's
    /// original at once, then every other node's replica is copied.
    pub fn start(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.issue(0, Some(self.own(0)), &mut out);
        for i in 1..self.slots.len() {
            self.issue(i, Some(Task::Copy), &mut out);
        }
        out
    }

    /// True once nothing is in flight or backing off: every range is
    /// committed, or no node is left to take the rest.
    pub fn finished(&self) -> bool {
        let settled = |s: &Slot| matches!(s.state, State::Idle | State::Dead);
        self.slots.iter().all(settled)
    }

    /// Whether `dispatch` is node `i`'s attempt in flight.
    pub fn awaits(&self, i: usize, dispatch: u64) -> bool {
        self.slots[i].dispatch == dispatch && self.slots[i].state == State::Busy
    }

    /// Take one event; return what must be done about it.
    pub fn step(&mut self, (i, dispatch, what): Event) -> Vec<Action> {
        let mut out = Vec::new();
        if self.slots.get(i).map(|s| s.dispatch) != Some(dispatch) {
            return out;
        }
        match what {
            What::Copied(Ok(copy)) => {
                self.slots[i].copy = copy;
                self.issue(i, Some(self.own(i)), &mut out);
            }
            What::Copied(Err(detail)) | What::Lost(detail) => self.fail(i, detail, &mut out),
            What::Frame(Message::Progress { .. }, _) => {}
            What::Frame(Message::Triangles { triples, .. }, _) => {
                self.slots[i].triples.extend(triples)
            }
            What::Frame(Message::Results { node, workers }, took) => {
                if let Err(detail) = self.commit(i, node, workers, took) {
                    self.fail(i, detail, &mut out);
                }
            }
            What::Frame(Message::NodeError { detail, .. }, _) => self.fail(i, detail, &mut out),
            What::Frame(other, _) => self.fail(i, format!("unexpected {other:?}"), &mut out),
            What::Woke => self.issue(i, None, &mut out),
        }
        self.recover(&mut out);
        out
    }

    /// The run's report — but for the orientation, plan, network and
    /// wall time, which the driver owns — or, the fallback failed too,
    /// why not.
    pub fn finish(self) -> Result<ClusterReport> {
        if self.completed.contains(&false) {
            let fallback = &self.slots[0];
            return Err(ClusterError::NodeFailed {
                node: 0,
                attempts: fallback.attempts,
                detail: fallback.last_error.clone(),
            });
        }
        let failed = |i: usize| self.slots[i].state == State::Dead || (i == 0 && self.fallback);
        let failed_nodes = (0..self.slots.len()).filter(|&i| failed(i)).collect();
        let reassigned_ranges = self.slots.iter().map(|s| s.reassigned).sum();
        let nodes: Vec<NodeReport> = self
            .slots
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.summaries.is_empty())
            .map(|(node, s)| NodeReport {
                node,
                copy: s.copy.0,
                copy_bytes: s.copy.1,
                workers: s.summaries,
                wall: s.wall,
                reassigned_ranges: s.reassigned,
            })
            .collect();
        Ok(ClusterReport {
            triangles: nodes.iter().map(|n| n.triangles()).sum(),
            orientation: PhaseReport::default(),
            balancing: PhaseReport::default(),
            plan: Vec::new(),
            nodes,
            network: NetSnapshot::default(),
            wall: Duration::ZERO,
            listed: self.listed,
            retries: self.retries,
            reassigned_ranges,
            failed_nodes,
        })
    }

    /// Node `node`'s own `P` ranges.
    fn own(&self, node: usize) -> Task {
        let p = self.cfg.cores_per_node;
        Task::Count((node * p..(node + 1) * p).collect(), true)
    }

    /// One attempt on node `i` under a fresh number: the first of a new
    /// stage `task`, with a full budget, or (`None`) a repeat. An
    /// injected copy failure is decided here; it never leaves the
    /// master.
    fn issue(&mut self, i: usize, task: Option<Task>, out: &mut Vec<Action>) {
        let s = &mut self.slots[i];
        if let Some(task) = task {
            s.task = task;
            s.attempts = 0;
        }
        self.issued += 1;
        s.dispatch = self.issued;
        s.state = State::Busy;
        s.attempts += 1;
        s.triples.clear();
        // Corruption is seeded per (node, attempt), so runs reproduce.
        let seed = 0x5D15_C0DE ^ ((i as u64) << 8) ^ u64::from(s.attempts);
        let what = match &self.slots[i].task {
            Task::Copy if self.faults.copy_fail(i) => {
                return self.fail(i, format!("injected copy failure for node {i}"), out);
            }
            Task::Copy => Do::Copy(
                self.bases[i].clone(),
                self.faults.corrupt_replica(i).map(|target| DiskFaultSpec {
                    kind: DiskFaultKind::BitFlip,
                    target,
                    seed,
                }),
            ),
            Task::Count(ranges, faulted) => {
                let faults = match faulted {
                    true => self.faults.dispatch_faults(i),
                    false => Default::default(),
                };
                Do::Dispatch(self.config(i, ranges, faults), i == 0 && self.fallback)
            }
        };
        out.push((i, self.issued, what));
    }

    /// The `Config` record dispatching `assigned` to node `i` — the one
    /// builder under first, repeated and reassigned dispatches.
    fn config(&self, i: usize, assigned: &[usize], faults: (NodeFault, Option<u64>)) -> Message {
        let mgt = &self.cfg.mgt;
        Message::Config {
            node: i as u32,
            graph_base: self.bases[i].clone(),
            workers: assigned
                .iter()
                .map(|&g| WorkerConfig {
                    start: self.ranges[g].0,
                    end: self.ranges[g].1,
                    budget_edges: self.cfg.budget.edges as u64,
                    scan_pruning: true,
                    backend: mgt.backend,
                    io_latency_us: mgt.io_latency.as_micros().min(u32::MAX as u128) as u32,
                    read_fault: faults.1,
                    codec: mgt.codec,
                })
                .collect(),
            listing: self.cfg.listing,
            directives: NodeDirectives {
                heartbeat_ms: self.cfg.heartbeat.as_millis().min(u32::MAX as u128) as u32,
                fault: faults.0,
            },
        }
    }

    /// Commit node `i`'s `Results` — the only place ranges, summaries
    /// and triangles enter the run's account — if they come from the
    /// node, match its latest dispatch range by range, and hold no
    /// range the ledger has already counted; else say why not.
    fn commit(&mut self, i: usize, from: u32, got: Vec<WorkerSummary>, took: Duration) -> Verdict {
        let s = &mut self.slots[i];
        let Task::Count(ranges, _) = &s.task else {
            return Err("Results with no dispatch in flight".into());
        };
        let sent: Vec<_> = got.iter().map(|w| (w.start, w.end)).collect();
        let owed: Vec<_> = ranges.iter().map(|&g| self.ranges[g]).collect();
        if (from as usize, &sent) != (i, &owed) {
            return Err(format!("node {from} sent {sent:?}; node {i} owes {owed:?}"));
        }
        if let Some(&g) = ranges.iter().find(|&&g| self.completed[g]) {
            return Err(format!("range {:?} already counted", self.ranges[g]));
        }
        ranges.iter().for_each(|&g| self.completed[g] = true);
        match &mut self.listed {
            Some(list) => list.append(&mut s.triples),
            None => s.triples.clear(),
        }
        s.wall += took;
        s.summaries.extend(got);
        s.state = State::Idle;
        Ok(())
    }

    /// The one failure path, for copies and dispatches alike: retire the
    /// attempt's number, triangles and connection, then back off for a
    /// repeat — or, the stage's budget spent, leave the node dead and
    /// its ranges for reassignment. Only an attempt in flight can fail.
    fn fail(&mut self, i: usize, detail: String, out: &mut Vec<Action>) {
        let s = &mut self.slots[i];
        if s.state != State::Busy {
            return;
        }
        self.issued += 1;
        s.dispatch = self.issued;
        s.last_error = detail;
        s.triples.clear();
        if let Task::Count(..) = s.task {
            out.push((i, s.dispatch, Do::Retire));
        }
        if s.attempts >= self.cfg.retry.max_attempts {
            s.state = State::Dead;
        } else {
            s.state = State::Backoff;
            self.retries += 1;
            let backoff = self.cfg.retry.backoff(i, s.attempts);
            out.push((i, s.dispatch, Do::Wait(backoff)));
        }
    }

    /// Once nothing is in flight or backing off, reassign the
    /// uncommitted ranges round-robin over the nodes whose last dispatch
    /// completed — every node holds a full replica, so any node can
    /// count any range — or, when none did, to the fallback, once.
    fn recover(&mut self, out: &mut Vec<Action>) {
        if !self.finished() {
            return;
        }
        let missing: Vec<usize> = (0..self.ranges.len())
            .filter(|&g| !self.completed[g])
            .collect();
        let mut survivors: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].state == State::Idle)
            .collect();
        if survivors.is_empty() && !missing.is_empty() && !self.fallback {
            self.fallback = true;
            survivors.push(0);
        }
        for (k, &i) in survivors.iter().enumerate() {
            let ranges: Vec<usize> = missing
                .iter()
                .copied()
                .skip(k)
                .step_by(survivors.len())
                .collect();
            if !ranges.is_empty() {
                self.slots[i].reassigned += ranges.len() as u64;
                self.issue(i, Some(Task::Count(ranges, false)), out);
            }
        }
    }
}

/// `Ok`, or why `Results` could not commit.
type Verdict = std::result::Result<(), String>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runner::RetryPolicy;

    /// Schedules run per `cargo test`.
    const CASES: u64 = 3000;
    /// Stale frames and wake-ups (numbers of retired dispatches) one
    /// schedule may deliver.
    const STALE: usize = 8;

    /// SplitMix64: a schedule is its seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }

        fn one_in(&mut self, n: usize) -> bool {
            self.below(n) == 0
        }
    }

    /// Range `g`'s triangles in the simulated graph: one to four, none
    /// shared with any other range.
    fn truth(g: u64) -> Vec<(u32, u32, u32)> {
        (0..g % 4 + 1)
            .map(|k| (g as u32, k as u32, u32::MAX))
            .collect()
    }

    /// Range `g` is `[10g, 10g + 10)`.
    fn range_of(start: u64) -> u64 {
        start / 10
    }

    /// The summary a node sends for range `g`, its count off by `poison`.
    fn summary(worker: usize, g: u64, poison: u64) -> WorkerSummary {
        WorkerSummary {
            worker: worker as u32,
            start: 10 * g,
            end: 10 * g + 10,
            triangles: truth(g).len() as u64 + poison,
            iterations: 1,
            cpu_ops: 0,
            bytes_read: 0,
            bytes_written: 0,
            seeks: 0,
            io_ops: 0,
            io_nanos: 0,
            wall_nanos: 0,
        }
    }

    fn frame(msg: Message) -> What {
        What::Frame(msg, Duration::from_millis(1))
    }

    /// One dispatch as the simulated node answers it: the events it has
    /// left to send, last first.
    struct Flight {
        node: usize,
        dispatch: u64,
        ranges: Vec<u64>,
        script: Vec<What>,
        retired: bool,
    }

    /// How often the schedules reached each path, over all cases.
    #[derive(Default, Debug)]
    struct Reached {
        finished: u64,
        gave_up: u64,
        fallback: u64,
        copy_failures: u64,
        duplicates: u64,
        stale: u64,
        repeats: u64,
    }

    /// Everything around one `Master`: it answers each action as the
    /// driver loop and a node could, in an order the schedule picks.
    struct World {
        rng: Rng,
        copies: Vec<(usize, u64, bool)>,
        flights: Vec<Flight>,
        waits: Vec<(usize, u64)>,
        stale_left: usize,
        waits_issued: u64,
        fallback: bool,
    }

    impl World {
        /// Take the master's actions, checking the fallback rule as each
        /// dispatch is issued.
        fn take(&mut self, m: &Master, actions: Vec<Action>, reached: &mut Reached) {
            for (node, dispatch, what) in actions {
                match what {
                    Do::Copy(_, corrupt) => {
                        let ok = corrupt.is_none() && !self.rng.one_in(5);
                        reached.copy_failures += u64::from(!ok);
                        self.copies.push((node, dispatch, ok));
                    }
                    Do::Dispatch(config, local) => {
                        if local {
                            let others_dead = m.slots[1..].iter().all(|s| s.state == State::Dead);
                            assert!(node == 0 && others_dead, "fallback with a survivor");
                            self.fallback = true;
                        }
                        let flight = self.flight(node, dispatch, &config, reached);
                        self.flights.push(flight);
                    }
                    Do::Retire => {
                        for f in self.flights.iter_mut().filter(|f| f.node == node) {
                            f.retired = true;
                        }
                    }
                    Do::Wait(_) => {
                        self.waits.push((node, dispatch));
                        self.waits_issued += 1;
                    }
                }
            }
        }

        /// What the node does with `config`: fail as its injected fault
        /// says (or at random), after listing some of its ranges, or
        /// list them all and send `Results` — sometimes twice.
        fn flight(
            &mut self,
            node: usize,
            dispatch: u64,
            config: &Message,
            reached: &mut Reached,
        ) -> Flight {
            let Message::Config {
                workers,
                directives,
                ..
            } = config
            else {
                panic!("dispatched {config:?}");
            };
            let id = node as u32;
            let ranges: Vec<u64> = workers.iter().map(|w| range_of(w.start)).collect();
            let error = || {
                frame(Message::NodeError {
                    node: id,
                    detail: "scan failed".into(),
                })
            };
            let failure = match directives.fault {
                NodeFault::Panic | NodeFault::Drop => Some(What::Lost("disconnected".into())),
                NodeFault::Stall => Some(What::Lost("no progress".into())),
                _ if workers[0].read_fault.is_some() => Some(error()),
                _ => match self.rng.below(8) {
                    0 => Some(error()),
                    1 => Some(What::Lost("no progress".into())),
                    _ => None,
                },
            };
            let mut script = vec![frame(Message::Progress { node: id, seq: 0 })];
            let listed = match failure {
                Some(_) => self.rng.below(ranges.len() + 1),
                None => ranges.len(),
            };
            for &g in &ranges[..listed] {
                script.push(frame(Message::Triangles {
                    node: id,
                    triples: truth(g),
                }));
            }
            let results = || {
                let workers = ranges.iter().enumerate().map(|(k, &g)| summary(k, g, 0));
                frame(Message::Results {
                    node: id,
                    workers: workers.collect(),
                })
            };
            match failure {
                Some(failure) => script.push(failure),
                None => {
                    script.push(results());
                    if self.rng.one_in(3) {
                        reached.duplicates += 1;
                        script.push(results());
                    }
                }
            }
            script.reverse();
            Flight {
                node,
                dispatch,
                ranges,
                script,
                retired: false,
            }
        }

        /// The next event the schedule delivers: a copy's answer, a
        /// frame of a live dispatch, a wake-up, or a stale frame or
        /// wake-up carrying a retired dispatch's number. `None` when
        /// nothing is left to say.
        fn next(&mut self, reached: &mut Reached) -> Option<Event> {
            let live: Vec<usize> = (0..self.flights.len())
                .filter(|&k| !self.flights[k].retired && !self.flights[k].script.is_empty())
                .collect();
            let stale: Vec<usize> = (0..self.flights.len())
                .filter(|&k| self.flights[k].retired)
                .collect();
            let mut kinds = Vec::new();
            for (kind, any) in [
                (0, !self.copies.is_empty()),
                (1, !live.is_empty()),
                (2, !self.waits.is_empty()),
                (3, self.stale_left > 0 && !stale.is_empty()),
            ] {
                if any {
                    kinds.push(kind);
                }
            }
            let took = Duration::from_millis(1);
            Some(match *kinds.get(self.rng.below(kinds.len()))? {
                0 => {
                    let (node, dispatch, ok) =
                        self.copies.swap_remove(self.rng.below(self.copies.len()));
                    let landed = if ok {
                        Ok((took, 100))
                    } else {
                        Err("digest mismatch".into())
                    };
                    (node, dispatch, What::Copied(landed))
                }
                1 => {
                    let f = &mut self.flights[live[self.rng.below(live.len())]];
                    (f.node, f.dispatch, f.script.pop().unwrap())
                }
                2 => {
                    let (node, dispatch) = self.waits.swap_remove(self.rng.below(self.waits.len()));
                    reached.repeats += 1;
                    (node, dispatch, What::Woke)
                }
                _ => {
                    self.stale_left -= 1;
                    reached.stale += 1;
                    let f = &self.flights[stale[self.rng.below(stale.len())]];
                    let id = f.node as u32;
                    let what = match self.rng.below(3) {
                        0 => {
                            let workers = f
                                .ranges
                                .iter()
                                .enumerate()
                                .map(|(k, &g)| summary(k, g, 1000));
                            frame(Message::Results {
                                node: id,
                                workers: workers.collect(),
                            })
                        }
                        1 => frame(Message::Triangles {
                            node: id,
                            triples: vec![(id, 0, 0)],
                        }),
                        _ => What::Woke,
                    };
                    (f.node, f.dispatch, what)
                }
            })
        }
    }

    /// Drive one master through the schedule `seed` picks, checking
    /// every property on the way and at the end.
    fn check(seed: u64, reached: &mut Reached) {
        let mut rng = Rng(seed);
        let (n, p, a) = (2 + rng.below(3), 1 + rng.below(3), 1 + rng.below(3));
        let mut plan = Vec::new();
        for node in 0..n {
            let times = match rng.below(4) {
                0 => String::new(),
                t => format!("x{t}"),
            };
            match rng.below(10) {
                0 => plan.push(format!("panic@{node}{times}")),
                1 => plan.push(format!("stall@{node}{times}")),
                2 => plan.push(format!("drop@{node}{times}")),
                3 => plan.push(format!("shortread@{node}{times}:4")),
                4 if node > 0 => plan.push(format!("copyfail@{node}{times}")),
                5 if node > 0 => plan.push(format!("corrupt@{node}{times}:adj")),
                _ => {}
            }
        }
        if rng.one_in(5) {
            // Seeded kills, up to every node: the all-dead path.
            plan.push(format!(
                "seed={};kill={}",
                rng.below(1000),
                1 + rng.below(n)
            ));
        }
        let cfg = ClusterConfig {
            nodes: n,
            cores_per_node: p,
            listing: true,
            retry: RetryPolicy {
                max_attempts: a as u32,
                ..Default::default()
            },
            fault: FaultPlan::parse(&plan.join(";")).unwrap(),
            ..Default::default()
        };
        let total = (n * p) as u64;
        let ranges = (0..total).map(|g| (10 * g, 10 * g + 10)).collect();
        let mut m = Master::new(&cfg, ranges, (0..n).map(|i| format!("node{i}")).collect());
        let mut w = World {
            rng,
            copies: Vec::new(),
            flights: Vec::new(),
            waits: Vec::new(),
            stale_left: STALE,
            waits_issued: 0,
            fallback: false,
        };
        let opening = m.start();
        w.take(&m, opening, reached);

        // Each node has at most n + 3 stages (its copy, its own ranges,
        // one reassignment per recovery round, the fallback) of at most
        // `a` attempts; an attempt takes one copy answer or at most
        // n·p + 3 frames, plus one wake-up.
        let bound = n * (n + 3) * a * (n * p + 4) + STALE;
        let mut steps = 0;
        let ctx = |steps| {
            format!(
                "seed {seed} ({n} nodes x {p} cores, {a} attempts, plan {plan:?}), step {steps}"
            )
        };
        while !m.finished() {
            steps += 1;
            assert!(
                steps <= bound,
                "{}: no end within {bound} steps",
                ctx(steps)
            );
            let event = w
                .next(reached)
                .unwrap_or_else(|| panic!("{}: stuck", ctx(steps)));
            let actions = m.step(event);
            assert!(
                m.slots.iter().all(|s| s.attempts as usize <= a),
                "{}: over budget",
                ctx(steps)
            );
            w.take(&m, actions, reached);
        }
        // Whatever is still in flight after the end (duplicate Results,
        // stale frames) must change nothing.
        while let Some(event) = w.next(reached) {
            assert!(
                m.step(event).is_empty(),
                "{}: acted after the end",
                ctx(steps)
            );
        }

        let mut counted: Vec<u64> = (m.slots.iter())
            .flat_map(|s| &s.summaries)
            .map(|w| range_of(w.start))
            .collect();
        counted.sort_unstable();
        assert!(
            counted.windows(2).all(|r| r[0] != r[1]),
            "{}: counted twice: {counted:?}",
            ctx(steps)
        );
        assert_eq!(m.retries, w.waits_issued, "{}: retries", ctx(steps));
        assert_eq!(w.waits.len(), 0, "{}: a backoff never ended", ctx(steps));
        reached.fallback += u64::from(w.fallback);
        match m.finish() {
            Ok(t) => {
                reached.finished += 1;
                assert_eq!(
                    counted,
                    (0..total).collect::<Vec<_>>(),
                    "{}: not exactly once",
                    ctx(steps)
                );
                for s in t.nodes.iter().flat_map(|r| &r.workers) {
                    assert_eq!(
                        s.triangles,
                        truth(range_of(s.start)).len() as u64,
                        "{}",
                        ctx(steps)
                    );
                }
                let mut listed = t.listed.unwrap();
                listed.sort_unstable();
                let mut want: Vec<(u32, u32, u32)> = (0..total).flat_map(truth).collect();
                want.sort_unstable();
                assert_eq!(listed, want, "{}: listing", ctx(steps));
                assert_eq!(t.retries, w.waits_issued, "{}", ctx(steps));
            }
            Err(e) => {
                reached.gave_up += 1;
                assert!(
                    w.fallback,
                    "{}: gave up before the fallback: {e}",
                    ctx(steps)
                );
            }
        }
    }

    /// Exactly once over arbitrary interleavings: thousands of seeded
    /// schedules of 2–4 nodes × 1–3 cores with budgets of 1–3 attempts,
    /// mixing completions, `NodeError`s, silences, injected copy
    /// failures and crashes, duplicate `Results`, frames and wake-ups of
    /// retired dispatches, and every node dying.
    #[test]
    fn every_range_commits_exactly_once_over_any_schedule() {
        let mut reached = Reached::default();
        for seed in 0..CASES {
            check(seed, &mut reached);
        }
        let r = &reached;
        for (path, count) in [
            ("finished", r.finished),
            ("gave up", r.gave_up),
            ("fallback", r.fallback),
            ("copy failure", r.copy_failures),
            ("duplicate Results", r.duplicates),
            ("stale event", r.stale),
            ("repeat", r.repeats),
        ] {
            assert!(count > 0, "no schedule reached: {path} ({reached:?})");
        }
    }
}
