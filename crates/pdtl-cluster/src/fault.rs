//! Deterministic fault injection for the cluster runtime.
//!
//! A [`FaultPlan`] describes which nodes misbehave and how. It is set
//! on the `ClusterConfig::fault` field (empty by default), built in code
//! or parsed by [`FaultPlan::parse`] from the grammar below — which is
//! what `pdtl cluster --fault <plan>` takes.
//!
//! # Grammar
//!
//! A plan is `;`-separated directives:
//!
//! * `<kind>@<node>[x<times>][:<arg>]` — inject `kind` on node `node`.
//!   `times` bounds how many dispatch attempts observe the fault
//!   (default: every attempt — a host that stays down); `x1` models a
//!   transient crash whose respawn succeeds. Kinds:
//!   - `panic` — the node thread panics (a crashed process),
//!   - `drop` — the node closes its connection,
//!   - `stall` — the node goes silent mid-run (wedged; found by the
//!     heartbeat deadline),
//!   - `delay:<ms>` — the node sleeps before working, heartbeating all
//!     the while (slow, not dead),
//!   - `shortread:<u32s>` — every worker's scan source fails after
//!     delivering that many values (a truncated/dying replica),
//!   - `copyfail` — the master's replica copy to that node fails,
//!   - `corrupt:<ext>` — the replica file `<ext>` (`deg`/`adj`/`hdr`/
//!     `vix`/`map`/`bnd`/`mft`, no dot) is bit-flipped *after* a
//!     successful copy; post-copy digest verification detects it, so
//!     `x1` models a transient medium error healed by the re-copy and
//!     a persistent spec exhausts the retry budget into reassignment.
//! * `seed=<u64>` / `kill=<k>` — kill `k` nodes chosen
//!   deterministically from the seed once the node count is known
//!   (expanded by [`FaultPlan::resolve`]); the chosen victims panic on
//!   every attempt.
//!
//! Example: `panic@1x1;delay@2:50` — node 1 crashes once (recovers on
//! respawn), node 2 is slow. `seed=42;kill=2` — two seeded victims stay
//! down.
//!
//! A directive must be able to fire: `ClusterRunner::new` refuses one
//! naming a node the cluster does not have, or a copy fault (`copyfail`,
//! `corrupt`) on node 0, whose graph is the master's original and is
//! never copied. Seeded kills clamp `k` to the node count instead.
//!
//! The plan is interpreted by the master: node-level faults ship to
//! nodes inside the Config message's directives record, short reads
//! ride the per-worker records, and `copyfail` never leaves the master.
//! Recovery dispatches (range reassignment, the master-local fallback)
//! deliberately ship no faults — the plan models hosts failing, not the
//! master's own process.

use pdtl_io::diskfault::FaultTarget;

use crate::error::{ClusterError, Result};
use crate::message::NodeFault;

/// `times` value meaning "every dispatch attempt": the host stays down.
const PERSISTENT: u32 = u32::MAX;

/// What a [`FaultSpec`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Node thread panics on dispatch.
    Panic,
    /// Node drops its connection on dispatch.
    Drop,
    /// Node goes silent on dispatch (no heartbeats, no results).
    Stall,
    /// Node sleeps this many milliseconds before working (heartbeats
    /// keep flowing).
    Delay(u32),
    /// Every worker's scan source fails after delivering this many
    /// `u32`s.
    ShortRead(u64),
    /// The master's replica copy to the node fails.
    CopyFail,
    /// The named replica file is silently corrupted after a successful
    /// copy (caught by post-copy digest verification).
    CorruptReplica(FaultTarget),
}

/// One fault directive: a kind, a target node, and how many dispatch
/// attempts observe it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Target node id.
    pub node: u32,
    /// What to inject.
    pub kind: FaultKind,
    /// How many dispatch attempts observe the fault ([`u32::MAX`] =
    /// all of them).
    pub times: u32,
}

/// The directive as the plan grammar spells it (`corrupt@1x2:adj`).
impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, arg) = match self.kind {
            FaultKind::Panic => ("panic", None),
            FaultKind::Drop => ("drop", None),
            FaultKind::Stall => ("stall", None),
            FaultKind::Delay(ms) => ("delay", Some(ms.to_string())),
            FaultKind::ShortRead(n) => ("shortread", Some(n.to_string())),
            FaultKind::CopyFail => ("copyfail", None),
            FaultKind::CorruptReplica(t) => ("corrupt", Some(t.ext()[1..].to_string())),
        };
        write!(f, "{kind}@{}", self.node)?;
        if self.times != PERSISTENT {
            write!(f, "x{}", self.times)?;
        }
        match arg {
            Some(arg) => write!(f, ":{arg}"),
            None => Ok(()),
        }
    }
}

/// A deterministic fault-injection plan (see the module docs for the
/// grammar).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Explicit fault directives.
    pub specs: Vec<FaultSpec>,
    /// Seeded kill set: `(seed, k)` picks `k` distinct victims once the
    /// node count is known.
    pub seeded_kills: Option<(u64, u32)>,
}

impl FaultPlan {
    /// An empty plan: no injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty() && self.seeded_kills.is_none()
    }

    /// Parse the plan grammar (module docs).
    pub fn parse(s: &str) -> Result<Self> {
        let mut plan = FaultPlan::default();
        let (mut seed, mut kill) = (None, None);
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(v) = part.strip_prefix("seed=") {
                seed = Some(parse_num::<u64>(v, part)?);
            } else if let Some(v) = part.strip_prefix("kill=") {
                kill = Some(parse_num::<u32>(v, part)?);
            } else {
                plan.specs.push(parse_spec(part)?);
            }
        }
        match (seed, kill) {
            (Some(s), Some(k)) => plan.seeded_kills = Some((s, k)),
            (None, None) => {}
            _ => {
                return Err(ClusterError::Config(
                    "fault plan: seed= and kill= must appear together".into(),
                ))
            }
        }
        Ok(plan)
    }

    /// Expand the plan against a concrete node count: seeded kills
    /// become persistent `Panic` specs on `k` distinct victims (`k`
    /// clamps to the node count), chosen by a seeded LCG so the same
    /// `(seed, k, nodes)` always selects the same victims.
    pub fn resolve(&self, nodes: usize) -> ResolvedFaults {
        let mut specs: Vec<(FaultSpec, u32)> = self.specs.iter().map(|&s| (s, s.times)).collect();
        if let Some((seed, k)) = self.seeded_kills {
            for victim in seeded_victims(seed, k, nodes) {
                let spec = FaultSpec {
                    node: victim,
                    kind: FaultKind::Panic,
                    times: PERSISTENT,
                };
                specs.push((spec, PERSISTENT));
            }
        }
        ResolvedFaults { specs }
    }
}

/// Pick `k` distinct victims in `0..nodes` from `seed` (deterministic).
fn seeded_victims(seed: u64, k: u32, nodes: usize) -> Vec<u32> {
    let mut victims = Vec::new();
    if nodes == 0 {
        return victims;
    }
    let k = (k as usize).min(nodes);
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    while victims.len() < k {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let candidate = ((state >> 33) % nodes as u64) as u32;
        if !victims.contains(&candidate) {
            victims.push(candidate);
        }
    }
    victims
}

fn parse_num<T: std::str::FromStr>(v: &str, ctx: &str) -> Result<T> {
    v.parse()
        .map_err(|_| ClusterError::Config(format!("fault plan: bad number in `{ctx}`")))
}

/// Parse one `<kind>@<node>[x<times>][:<arg>]` directive.
fn parse_spec(part: &str) -> Result<FaultSpec> {
    let bad = |why: &str| ClusterError::Config(format!("fault plan: {why} in `{part}`"));
    let (kind_s, rest) = part.split_once('@').ok_or_else(|| bad("missing `@node`"))?;
    let (target, arg) = match rest.split_once(':') {
        Some((t, a)) => (t, Some(a)),
        None => (rest, None),
    };
    let (node_s, times_s) = match target.split_once('x') {
        Some((n, t)) => (n, Some(t)),
        None => (target, None),
    };
    let node = parse_num::<u32>(node_s, part)?;
    let times = match times_s {
        Some(t) => {
            let t = parse_num::<u32>(t, part)?;
            if t == 0 {
                return Err(bad("x0 would never fire"));
            }
            t
        }
        None => PERSISTENT,
    };
    let need_arg = || arg.ok_or_else(|| bad("missing `:arg`"));
    let kind = match kind_s {
        "panic" => FaultKind::Panic,
        "drop" => FaultKind::Drop,
        "stall" => FaultKind::Stall,
        "delay" => FaultKind::Delay(parse_num(need_arg()?, part)?),
        "shortread" => FaultKind::ShortRead(parse_num(need_arg()?, part)?),
        "copyfail" => FaultKind::CopyFail,
        "corrupt" => FaultKind::CorruptReplica(
            FaultTarget::parse(need_arg()?).ok_or_else(|| bad("unknown replica file extension"))?,
        ),
        other => return Err(bad(&format!("unknown fault kind `{other}`"))),
    };
    if arg.is_some()
        && !matches!(
            kind,
            FaultKind::Delay(_) | FaultKind::ShortRead(_) | FaultKind::CorruptReplica(_)
        )
    {
        return Err(bad("kind takes no `:arg`"));
    }
    Ok(FaultSpec { node, kind, times })
}

/// A [`FaultPlan`] expanded against a node count, with per-spec
/// remaining-charge counters the runner consumes as it dispatches.
#[derive(Debug, Clone)]
pub struct ResolvedFaults {
    /// `(spec, remaining charges)`; [`PERSISTENT`] never decrements.
    specs: Vec<(FaultSpec, u32)>,
}

impl ResolvedFaults {
    /// Faults to ship with a dispatch to `node`, consuming one charge
    /// of each matching spec: the node-level fault for the Config
    /// directives tail plus the per-worker short-read budget.
    pub fn dispatch_faults(&mut self, node: usize) -> (NodeFault, Option<u64>) {
        let mut node_fault = NodeFault::None;
        let mut read_fault = None;
        for (spec, remaining) in &mut self.specs {
            if spec.node as usize != node || *remaining == 0 {
                continue;
            }
            let fault = match spec.kind {
                FaultKind::Panic => NodeFault::Panic,
                FaultKind::Drop => NodeFault::Drop,
                FaultKind::Stall => NodeFault::Stall,
                FaultKind::Delay(ms) => NodeFault::Delay(ms),
                FaultKind::ShortRead(n) => {
                    if read_fault.is_none() {
                        read_fault = Some(n);
                        consume(remaining);
                    }
                    continue;
                }
                FaultKind::CopyFail | FaultKind::CorruptReplica(_) => continue,
            };
            if node_fault == NodeFault::None {
                node_fault = fault;
                consume(remaining);
            }
        }
        (node_fault, read_fault)
    }

    /// Whether the replica copy to `node` should fail this attempt,
    /// consuming one charge.
    pub fn copy_fail(&mut self, node: usize) -> bool {
        for (spec, remaining) in &mut self.specs {
            if spec.node as usize == node && *remaining > 0 && spec.kind == FaultKind::CopyFail {
                consume(remaining);
                return true;
            }
        }
        false
    }

    /// The replica file to corrupt after this attempt's copy to `node`
    /// lands (if any), consuming one charge.
    pub fn corrupt_replica(&mut self, node: usize) -> Option<FaultTarget> {
        for (spec, remaining) in &mut self.specs {
            if spec.node as usize != node || *remaining == 0 {
                continue;
            }
            if let FaultKind::CorruptReplica(target) = spec.kind {
                consume(remaining);
                return Some(target);
            }
        }
        None
    }
}

fn consume(remaining: &mut u32) {
    if *remaining != PERSISTENT {
        *remaining -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let plan =
            FaultPlan::parse("panic@1x1; delay@2:50 ;shortread@0x2:1000;copyfail@3").unwrap();
        assert_eq!(
            plan.specs,
            vec![
                FaultSpec {
                    node: 1,
                    kind: FaultKind::Panic,
                    times: 1
                },
                FaultSpec {
                    node: 2,
                    kind: FaultKind::Delay(50),
                    times: PERSISTENT
                },
                FaultSpec {
                    node: 0,
                    kind: FaultKind::ShortRead(1000),
                    times: 2
                },
                FaultSpec {
                    node: 3,
                    kind: FaultKind::CopyFail,
                    times: PERSISTENT
                },
            ]
        );
        assert_eq!(plan.seeded_kills, None);
        let spelled: Vec<String> = plan.specs.iter().map(ToString::to_string).collect();
        assert_eq!(
            spelled.join(";"),
            "panic@1x1;delay@2:50;shortread@0x2:1000;copyfail@3"
        );

        let seeded = FaultPlan::parse("seed=42;kill=2").unwrap();
        assert!(seeded.specs.is_empty());
        assert_eq!(seeded.seeded_kills, Some((42, 2)));

        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_directives() {
        for bad in [
            "panic",          // no @node
            "panic@x",        // no node id
            "explode@1",      // unknown kind
            "delay@1",        // missing arg
            "panic@1:5",      // arg on argless kind
            "panic@1x0",      // zero times
            "seed=7",         // seed without kill
            "kill=2",         // kill without seed
            "shortread@1:js", // non-numeric arg
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn seeded_kill_is_deterministic_and_distinct() {
        let a = seeded_victims(42, 3, 8);
        let b = seeded_victims(42, 3, 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "victims are distinct: {a:?}");
        assert!(a.iter().all(|&v| v < 8));
        // a different seed picks a different set at least sometimes
        let other: Vec<_> = (0..16).map(|s| seeded_victims(s, 3, 8)).collect();
        assert!(other.iter().any(|v| *v != a));
        // kill count clamps to the node count
        assert_eq!(seeded_victims(7, 100, 4).len(), 4);
    }

    #[test]
    fn charges_are_consumed_per_dispatch() {
        let plan = FaultPlan::parse("panic@1x1;shortread@2:64").unwrap();
        let mut r = plan.resolve(4);
        assert_eq!(r.dispatch_faults(1), (NodeFault::Panic, None));
        // the single charge is spent: the respawn dispatch is clean
        assert_eq!(r.dispatch_faults(1), (NodeFault::None, None));
        // persistent faults never run out
        assert_eq!(r.dispatch_faults(2), (NodeFault::None, Some(64)));
        assert_eq!(r.dispatch_faults(2), (NodeFault::None, Some(64)));
        assert_eq!(r.dispatch_faults(0), (NodeFault::None, None));
    }

    #[test]
    fn copy_fail_consumes_independently() {
        let plan = FaultPlan::parse("copyfail@1x2").unwrap();
        let mut r = plan.resolve(2);
        assert!(r.copy_fail(1));
        assert!(r.copy_fail(1));
        assert!(!r.copy_fail(1));
        assert!(!r.copy_fail(0));
        // copyfail never leaks into dispatch faults
        let mut r = plan.resolve(2);
        assert_eq!(r.dispatch_faults(1), (NodeFault::None, None));
        assert!(r.copy_fail(1));
    }

    #[test]
    fn corrupt_parses_and_consumes_independently() {
        let plan = FaultPlan::parse("corrupt@1x1:adj").unwrap();
        assert_eq!(
            plan.specs,
            vec![FaultSpec {
                node: 1,
                kind: FaultKind::CorruptReplica(FaultTarget::Adj),
                times: 1
            }]
        );
        let mut r = plan.resolve(3);
        // Never leaks into dispatch faults, fires once, then is spent.
        assert_eq!(r.dispatch_faults(1), (NodeFault::None, None));
        assert_eq!(r.corrupt_replica(1), Some(FaultTarget::Adj));
        assert_eq!(r.corrupt_replica(1), None);
        assert_eq!(r.corrupt_replica(0), None);
        // Persistent corruption keeps firing on every re-copy.
        let mut r = FaultPlan::parse("corrupt@0:mft").unwrap().resolve(2);
        assert_eq!(r.corrupt_replica(0), Some(FaultTarget::Mft));
        assert_eq!(r.corrupt_replica(0), Some(FaultTarget::Mft));
        // Bad targets are rejected at parse time.
        assert!(FaultPlan::parse("corrupt@1").is_err());
        assert!(FaultPlan::parse("corrupt@1:exe").is_err());
    }

    #[test]
    fn resolve_expands_seeded_kills_to_panics() {
        let plan = FaultPlan::parse("seed=9;kill=2").unwrap();
        let mut r = plan.resolve(4);
        let victims = seeded_victims(9, 2, 4);
        for &v in &victims {
            assert_eq!(r.dispatch_faults(v as usize).0, NodeFault::Panic);
            // persistent: still down on respawn
            assert_eq!(r.dispatch_faults(v as usize).0, NodeFault::Panic);
        }
        for node in 0..4u32 {
            if !victims.contains(&node) {
                assert_eq!(r.dispatch_faults(node as usize).0, NodeFault::None);
            }
        }
    }
}
