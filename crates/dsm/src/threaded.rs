//! Deployment-style execution: one OS thread per node over channels.
//!
//! Every node — the home and each remote — runs on its own thread the
//! share of Tables 1 and 2 that names it as the actor
//! ([`AsyncSystem::restricted_to`]): the rules the model checker verified,
//! not a second copy of them, "directly ... in microcode" (§2.3). A node
//! owns a whole [`AsyncState`] of which only its own slice and its ends of
//! the links are live, and a [`Simulator`] over its share. The network is
//! one crossbeam channel per directed link, which keeps the paper's
//! reliable in-order point-to-point assumption (§2.2); unbounded channels
//! play the role of its infinite buffering. CPU decisions are a per-node
//! seeded [`Migrating`] workload behind the filter [`crate::Machine`] uses.
//!
//! That the nodes compose to the verified global semantics is checked:
//! `ccr_mc::inplace_divergence` holds the shares to three facts at every
//! state it visits, and `tests/engines_cross_check.rs` runs the nodes in
//! lockstep with the global executor.

use crate::machine::{enabled, standard_ops};
use crate::workload::Migrating;
use ccr_core::ids::{ProcessId, RemoteId};
use ccr_core::refine::RefinedProtocol;
use ccr_runtime::asynch::{AsyncConfig, AsyncState, AsyncSystem, RemoteState};
use ccr_runtime::error::{Result, RuntimeError};
use ccr_runtime::sched::{RandomSched, Scheduler};
use ccr_runtime::sim::Simulator;
use ccr_runtime::system::Label;
use ccr_runtime::wire::{Link, Wire};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Parameters for a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Number of remote nodes (threads).
    pub n: u32,
    /// Home buffer capacity `k`.
    pub home_buffer: usize,
    /// Stop after this many completed operations at the home.
    pub target_ops: u64,
    /// Probability an idle CPU starts an access per poll.
    pub access_prob: f64,
    /// Probability a holder evicts per poll.
    pub evict_prob: f64,
    /// RNG seed.
    pub seed: u64,
    /// Hard wall-clock limit.
    pub time_limit: Duration,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self {
            n: 4,
            home_buffer: 2,
            target_ops: 1_000,
            access_prob: 0.5,
            evict_prob: 0.5,
            seed: 42,
            time_limit: Duration::from_secs(20),
        }
    }
}

/// Result of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadedReport {
    /// Operations (acquisition rendezvous) completed at the home.
    pub ops: u64,
    /// Total wire messages observed by the home (in + out).
    pub home_messages: u64,
    /// Wall time.
    pub elapsed: Duration,
    /// True if the ops target was reached before the time limit.
    pub reached_target: bool,
    /// Per-remote completions as counted by the home (C1 consumptions).
    pub per_remote: Vec<u64>,
    /// First runtime error observed on any thread, if any.
    pub error: Option<RuntimeError>,
}

/// One node of the machine: a simulator over the share of the rules that
/// names `who` as the actor, and the node's ends of the links. What is
/// delivered waits on an inbound link until a rule takes it; what a step
/// sends has left the outbound links when the step returns, so between
/// steps those are empty.
pub struct Node<'s, 'a> {
    who: ProcessId,
    sim: Simulator<'s, AsyncSystem<'a>>,
}

/// `who`'s two ends of the links in remote slice `r`: the one it receives
/// on and the one it sends on.
fn ends(who: ProcessId, r: &mut RemoteState) -> (&mut Link, &mut Link) {
    match who {
        ProcessId::Home => (&mut r.to_home, &mut r.to_remote),
        ProcessId::Remote(_) => (&mut r.to_remote, &mut r.to_home),
    }
}

impl<'s, 'a> Node<'s, 'a> {
    /// The node of the process `sys` is
    /// [restricted](AsyncSystem::restricted_to) to, in its initial state.
    pub fn new(sys: &'s AsyncSystem<'a>) -> Self {
        let who = sys.restriction().expect("a node runs one process's share of the rules");
        Node { who, sim: Simulator::new(sys) }
    }

    /// The node's configuration: its own slice and its ends of the links
    /// are live, every other slice is as it was initially.
    pub fn state(&self) -> &AsyncState {
        self.sim.state()
    }

    /// The remote slices whose links end at this node: every one for the
    /// home, its own for a remote.
    pub fn slices(&self) -> std::ops::Range<usize> {
        match self.who {
            ProcessId::Home => 0..self.sim.state().n(),
            ProcessId::Remote(r) => r.index()..r.index() + 1,
        }
    }

    /// The network has brought `w` on the link of slice `i`.
    pub fn deliver(&mut self, i: usize, w: Wire) {
        ends(self.who, &mut self.sim.state_mut().remotes[i]).0.push(w);
    }

    /// One step of [`Simulator::step_filtered`]; each message the step
    /// sent goes to `send` with the slice whose link it was put on.
    pub fn step(
        &mut self,
        sched: &mut dyn Scheduler,
        filter: impl FnMut(&Label) -> bool,
        mut send: impl FnMut(usize, Wire),
    ) -> Result<Option<Label>> {
        let fired = self.sim.step_filtered(sched, filter)?;
        // (A write to the state costs the simulator a copy of it, and a
        // walk of every rule group of the share at its next step: a
        // node's deliveries and sends invalidate all of its labels.)
        if fired.as_ref().is_some_and(|label| label.emissions().next().is_some()) {
            let (who, slices) = (self.who, self.slices());
            let state = self.sim.state_mut();
            for i in slices {
                while let Some(w) = ends(who, &mut state.remotes[i]).1.pop() {
                    send(i, w);
                }
            }
        }
        Ok(fired)
    }
}

/// What the threads of one run share.
struct Run<'a> {
    config: &'a ThreadedConfig,
    started: Instant,
    /// Raised by whichever node ends first — target reached, time up or
    /// failed — and read by every node before each step.
    stop: AtomicBool,
    /// The error of the node that failed first.
    error: Mutex<Option<RuntimeError>>,
}

impl Run<'_> {
    /// Runs `node`, the `index`-th of the machine, until the run stops or
    /// `done` says so of a label the node fired. `arrivals` and
    /// `departures` are the network's ends of the node's links, one of each
    /// per slice of [`Node::slices`].
    fn drive(
        &self,
        mut node: Node<'_, '_>,
        index: u64,
        arrivals: &[Receiver<Wire>],
        departures: &[Sender<Wire>],
        mut done: impl FnMut(&Label) -> bool,
    ) {
        // Two streams a node: which enabled rule fires, what its CPU wants.
        let seed = self.config.seed.wrapping_add(2 * index);
        let mut sched = RandomSched::new(seed);
        let mut workload =
            Migrating::new(seed.wrapping_add(1), self.config.access_prob, self.config.evict_prob);
        let first = node.slices().start;
        // A send to a node that has ended, and so ended the run, is dropped.
        let mut send = |i: usize, w| {
            let _ = departures[i - first].send(w);
        };
        while !self.stop.load(Ordering::SeqCst) && self.started.elapsed() <= self.config.time_limit
        {
            for (i, arrived) in node.slices().zip(arrivals) {
                while let Ok(w) = arrived.try_recv() {
                    node.deliver(i, w);
                }
            }
            match node.step(&mut sched, |label| enabled(&mut workload, label), &mut send) {
                Ok(Some(label)) if done(&label) => break,
                Ok(Some(_)) => {}
                Ok(None) => std::thread::yield_now(),
                Err(e) => {
                    self.error.lock().expect("no thread panics holding it").get_or_insert(e);
                    break;
                }
            }
        }
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Runs the refined protocol on real threads until `target_ops` operations
/// complete (or the time limit expires).
pub fn run_threaded(refined: &RefinedProtocol, config: &ThreadedConfig) -> ThreadedReport {
    let n = config.n as usize;
    let sys =
        AsyncSystem::new(refined, config.n, AsyncConfig::with_home_buffer(config.home_buffer));
    let run = Run {
        config,
        started: Instant::now(),
        stop: AtomicBool::new(false),
        error: Mutex::new(None),
    };
    // One channel per directed link.
    let (to_home_tx, to_home_rx): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded::<Wire>()).unzip();
    let (to_remote_tx, to_remote_rx): (Vec<_>, Vec<_>) =
        (0..n).map(|_| unbounded::<Wire>()).unzip();

    let op_msgs = standard_ops(refined);
    let mut ops = 0u64;
    let mut home_messages = 0u64;
    let mut per_remote = vec![0u64; n];
    std::thread::scope(|scope| {
        let (run, sys) = (&run, &sys);
        for (i, (arrived, tx)) in to_remote_rx.into_iter().zip(to_home_tx).enumerate() {
            scope.spawn(move || {
                let sys = sys.clone().restricted_to(ProcessId::Remote(RemoteId(i as u32)));
                run.drive(Node::new(&sys), i as u64 + 1, &[arrived], &[tx], |_| false);
            });
        }

        // The home runs on this thread and keeps the run's books.
        let sys = sys.clone().restricted_to(ProcessId::Home);
        run.drive(Node::new(&sys), 0, &to_home_rx, &to_remote_tx, |label| {
            home_messages += label.recv.iter().chain(label.emissions()).count() as u64;
            if let Some((active, msg)) = label.completes {
                ops += u64::from(op_msgs.contains(&msg));
                if let ProcessId::Remote(r) = active {
                    per_remote[r.index()] += 1;
                }
            }
            ops >= config.target_ops
        });
    });
    ThreadedReport {
        ops,
        home_messages,
        elapsed: run.started.elapsed(),
        reached_target: ops >= config.target_ops,
        per_remote,
        error: run.error.into_inner().expect("no thread panicked holding it"),
    }
}
