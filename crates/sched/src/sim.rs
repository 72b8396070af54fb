//! The discrete-event engine core.
//!
//! [`Engine`] owns the simulated machine state — per-core virtual clocks,
//! the [`TaskDeques`], the [`StackAllocator`], the [`EventQueue`], and
//! the statistics — and
//! executes the recorded computation one chargeable action at a time.
//!
//! *Who* steals *what* during a sweep is delegated to a
//! [`StealPolicy`]: the engine exposes the
//! queries a policy needs (`head_pri`, `pending_pri`, …) and the two
//! effects it may apply (`commit_steal`, `note_failed_round` /
//! `note_failed_probe`); everything else — frame allocation, fork/join
//! bookkeeping, miss accounting — is policy-independent and lives here.

use hbp_machine::{MachineConfig, MemSystem, Word};
use hbp_model::{Computation, Item, NodeId, Target};
use hbp_trace::{EventKind as TrEv, TraceSink};

use crate::clock::{EvKind, EventQueue};
use crate::deque::TaskDeques;
use crate::policy::StealPolicy;
use crate::report::ExecReport;
use crate::stacks::StackAllocator;

use std::collections::HashSet;

/// Where a core is within its current node's item list.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: NodeId,
    item: usize,
    pos: u32,
}

#[derive(Debug, Clone, Copy)]
enum CoreState {
    Idle,
    Run(Cursor),
}

#[derive(Debug)]
struct Core {
    time: u64,
    busy: u64,
    steal_overhead: u64,
    idle_accum: u64,
    idle_since: u64,
    state: CoreState,
    cur_region: u32,
    /// Miss deltas of the currently open trace segment
    /// (heap block / stack block / stack plain); tracked only when a
    /// tracer is attached, flushed as [`TrEv::MissDelta`] at segment close.
    seg_miss: [u64; 3],
}

/// The policy-independent simulator state (see module docs).
pub struct Engine<'a> {
    comp: &'a Computation,
    cfg: MachineConfig,
    ms: MemSystem,
    /// Optional structured-event recorder (see [`Engine::attach_trace`]).
    trace: Option<&'a TraceSink>,
    /// Virtual time of the sweep currently being served (for the
    /// [`TrEv::StealFail`] events emitted from `note_failed_*`).
    sweep_now: u64,
    // --- static structure -------------------------------------------------
    /// node -> (parent node, index of the fork item inside the parent)
    parent: Vec<Option<(NodeId, usize)>>,
    /// priority of the fork that created the node (root: D' + 1)
    pri_of: Vec<u32>,
    // --- dynamic state ----------------------------------------------------
    cores: Vec<Core>,
    deques: TaskDeques,
    stacks: StackAllocator,
    frame_addr: Vec<Word>,
    region_of: Vec<u32>,
    /// per node: remaining children of its currently-active fork
    fork_remaining: Vec<u8>,
    /// per node: item index of its currently-active fork
    active_fork: Vec<u32>,
    /// per node: last core to execute part of the node's kernel items
    executor_of: Vec<u32>,
    clock: EventQueue,
    done: bool,
    end_time: u64,
    // --- statistics --------------------------------------------------------
    executed: u64,
    steals: u64,
    steals_by_pri: Vec<u64>,
    stolen_sizes: Vec<u64>,
    failed_rounds: HashSet<(u32, u32)>,
    failed_probes: u64,
    usurpations: u64,
    heap_block_misses: u64,
    stack_block_misses: u64,
    stack_plain_misses: u64,
}

impl<'a> Engine<'a> {
    /// Fresh engine for `comp` on the machine `cfg`.
    pub fn new(comp: &'a Computation, cfg: MachineConfig) -> Self {
        assert_eq!(
            comp.block_words, cfg.block_words,
            "computation was built for block size {}, machine has {}",
            comp.block_words, cfg.block_words
        );
        let n = comp.nodes.len();
        let mut parent = vec![None; n];
        let mut pri_of = vec![comp.n_priorities + 1; n];
        for (pn, ii, l, r, pri) in comp.forks() {
            parent[l.idx()] = Some((pn, ii));
            parent[r.idx()] = Some((pn, ii));
            pri_of[l.idx()] = pri;
            pri_of[r.idx()] = pri;
        }
        Self {
            comp,
            cfg,
            ms: MemSystem::new(cfg),
            trace: None,
            sweep_now: 0,
            parent,
            pri_of,
            cores: (0..cfg.p)
                .map(|_| Core {
                    time: 0,
                    busy: 0,
                    steal_overhead: 0,
                    idle_accum: 0,
                    idle_since: 0,
                    state: CoreState::Idle,
                    cur_region: 0,
                    seg_miss: [0; 3],
                })
                .collect(),
            deques: TaskDeques::new(cfg.p),
            stacks: StackAllocator::new(comp, cfg),
            frame_addr: vec![Word::MAX; n],
            region_of: vec![u32::MAX; n],
            fork_remaining: vec![0; n],
            active_fork: vec![u32::MAX; n],
            executor_of: vec![u32::MAX; n],
            clock: EventQueue::new(),
            done: false,
            end_time: 0,
            executed: 0,
            steals: 0,
            steals_by_pri: vec![0; comp.n_priorities as usize + 2],
            stolen_sizes: Vec::new(),
            failed_rounds: HashSet::new(),
            failed_probes: 0,
            usurpations: 0,
            heap_block_misses: 0,
            stack_block_misses: 0,
            stack_plain_misses: 0,
        }
    }

    /// Record structured events into `sink` for the rest of this run.
    ///
    /// Purely observational: the event loop, costs, and report are
    /// bit-identical with and without a tracer (the determinism tests
    /// cover this). The sink must be sized for at least `cfg.p` workers.
    pub fn attach_trace(&mut self, sink: &'a TraceSink) {
        assert!(
            sink.workers() >= self.cfg.p,
            "trace sink sized for {} workers, machine has {}",
            sink.workers(),
            self.cfg.p
        );
        assert!(
            sink.clock() == hbp_trace::ClockDomain::Virtual,
            "sim traces are virtual-time; use ClockDomain::Virtual"
        );
        self.trace = Some(sink);
    }

    /// Emit one trace event for `core` (no-op without a tracer).
    #[inline]
    fn emit(&self, core: usize, t: u64, kind: TrEv) {
        if let Some(tr) = self.trace {
            tr.push(core, t, kind);
        }
    }

    /// Flush the open segment's miss deltas for `core` at time `t`
    /// (called just before the segment-closing event is emitted).
    fn close_segment(&mut self, core: usize, t: u64) {
        if self.trace.is_none() {
            return;
        }
        let [heap_block, stack_block, stack_plain] = self.cores[core].seg_miss;
        if heap_block + stack_block + stack_plain > 0 {
            self.emit(
                core,
                t,
                TrEv::MissDelta {
                    heap_block,
                    stack_block,
                    stack_plain,
                },
            );
        }
        self.cores[core].seg_miss = [0; 3];
    }

    fn schedule_sweep(&mut self, time: u64) {
        // Only idle cores benefit from sweeps; dedupe by timestamp.
        let wanted = self
            .cores
            .iter()
            .any(|c| matches!(c.state, CoreState::Idle));
        self.clock.schedule_sweep(time, wanted);
    }

    /// Push `node`'s frame in `region` and make `core` start executing it.
    fn start_node(&mut self, core: usize, node: NodeId, region: u32) {
        let tn = &self.comp.nodes[node.idx()];
        let fa = self.stacks.push_frame(region, tn.pad_words, tn.frame_words);
        self.frame_addr[node.idx()] = fa;
        self.region_of[node.idx()] = region;
        self.executor_of[node.idx()] = core as u32;
        self.cores[core].cur_region = region;
        self.cores[core].state = CoreState::Run(Cursor {
            node,
            item: 0,
            pos: 0,
        });
        if self.trace.is_some() {
            let t = self.cores[core].time;
            self.emit(
                core,
                t,
                TrEv::TaskBegin {
                    task: node.idx() as u32,
                },
            );
        }
    }

    fn resolve(&self, t: Target) -> Word {
        match t {
            Target::Global(w) => w,
            Target::Local { node, off } => {
                let fa = self.frame_addr[node.idx()];
                debug_assert!(fa != Word::MAX, "access to dead frame of {node:?}");
                fa + off as u64
            }
        }
    }

    /// Execute one chargeable action for `core`; zero-cost control steps
    /// (node finish, join resolution) cascade within the same event.
    fn step(&mut self, core: usize) {
        loop {
            let cur = match self.cores[core].state {
                CoreState::Idle => return,
                CoreState::Run(c) => c,
            };
            let node = cur.node;
            let items_len = self.comp.nodes[node.idx()].items.len();
            if cur.item >= items_len {
                if self.finish_node(core, node) {
                    continue; // new state, keep cascading
                }
                return; // idle or done
            }
            match self.comp.nodes[node.idx()].items[cur.item] {
                Item::Seg(s) => {
                    if cur.pos >= s.len() {
                        self.cores[core].state = CoreState::Run(Cursor {
                            node,
                            item: cur.item + 1,
                            pos: 0,
                        });
                        continue;
                    }
                    let a = self.comp.arena[(s.start + cur.pos) as usize];
                    let addr = self.resolve(a.target);
                    let (out, cost) = self.ms.access_costed(core, addr, a.write);
                    let is_stack = addr >= self.stacks.stack_base();
                    if out.is_miss() {
                        if out.is_block_miss() {
                            if is_stack {
                                self.stack_block_misses += 1;
                                if self.trace.is_some() {
                                    self.cores[core].seg_miss[1] += 1;
                                }
                            } else {
                                self.heap_block_misses += 1;
                                if self.trace.is_some() {
                                    self.cores[core].seg_miss[0] += 1;
                                }
                            }
                        } else if is_stack {
                            self.stack_plain_misses += 1;
                            if self.trace.is_some() {
                                self.cores[core].seg_miss[2] += 1;
                            }
                        }
                    }
                    self.executed += 1;
                    self.cores[core].time += cost;
                    self.cores[core].busy += cost;
                    self.cores[core].state = CoreState::Run(Cursor {
                        node,
                        item: cur.item,
                        pos: cur.pos + 1,
                    });
                    let t = self.cores[core].time;
                    self.clock.push(t, EvKind::Step(core as u32));
                    return;
                }
                Item::Fork { left, right, .. } => {
                    // O(1) fork bookkeeping.
                    self.cores[core].time += 1;
                    self.cores[core].busy += 1;
                    if self.trace.is_some() {
                        let t = self.cores[core].time;
                        self.close_segment(core, t);
                        self.emit(
                            core,
                            t,
                            TrEv::Fork {
                                parent: node.idx() as u32,
                                left: left.idx() as u32,
                                right: right.idx() as u32,
                            },
                        );
                    }
                    self.fork_remaining[node.idx()] = 2;
                    self.active_fork[node.idx()] = cur.item as u32;
                    self.deques.push_bottom(core, right);
                    let region = self.cores[core].cur_region;
                    self.start_node(core, left, region);
                    let t = self.cores[core].time;
                    self.clock.push(t, EvKind::Step(core as u32));
                    self.schedule_sweep(t);
                    return;
                }
            }
        }
    }

    /// Handle completion of `node` by `core`. Returns `true` if the core
    /// has a new running state to cascade into.
    fn finish_node(&mut self, core: usize, node: NodeId) -> bool {
        if self.trace.is_some() {
            let t = self.cores[core].time;
            self.close_segment(core, t);
            self.emit(
                core,
                t,
                TrEv::TaskEnd {
                    task: node.idx() as u32,
                },
            );
        }
        // Pop the frame (LIFO within its region).
        let tn = &self.comp.nodes[node.idx()];
        let region = self.region_of[node.idx()];
        let fa = self.frame_addr[node.idx()];
        self.stacks
            .pop_frame(region, fa, tn.pad_words, tn.frame_words);
        self.frame_addr[node.idx()] = Word::MAX;

        if node == self.comp.root {
            self.done = true;
            self.end_time = self.cores[core].time;
            self.cores[core].state = CoreState::Idle;
            self.cores[core].idle_since = self.cores[core].time;
            return false;
        }
        let (pnode, _pitem) = self.parent[node.idx()].expect("non-root has a parent");
        self.fork_remaining[pnode.idx()] -= 1;
        if self.fork_remaining[pnode.idx()] > 0 {
            // Sibling still outstanding: resume it from our own deque if it
            // was not stolen, otherwise this kernel is blocked — go idle.
            if let Some(sib) = self.deques.pop_bottom(core) {
                debug_assert_eq!(
                    self.parent[sib.idx()].map(|(p, _)| p),
                    Some(pnode),
                    "deque bottom is not the sibling"
                );
                let region = self.cores[core].cur_region;
                self.start_node(core, sib, region);
                let t = self.cores[core].time;
                self.schedule_sweep(t);
                return true;
            }
            self.cores[core].state = CoreState::Idle;
            self.cores[core].idle_since = self.cores[core].time;
            let t = self.cores[core].time;
            self.schedule_sweep(t);
            return false;
        }
        // Both children done: the last finisher continues the parent
        // (usurpation if it is not the core previously executing it).
        if self.executor_of[pnode.idx()] != core as u32 {
            self.usurpations += 1;
        }
        self.executor_of[pnode.idx()] = core as u32;
        self.cores[core].cur_region = self.region_of[pnode.idx()];
        let resume_item = self.active_fork[pnode.idx()] as usize + 1;
        self.cores[core].state = CoreState::Run(Cursor {
            node: pnode,
            item: resume_item,
            pos: 0,
        });
        if self.trace.is_some() {
            let t = self.cores[core].time;
            self.emit(
                core,
                t,
                TrEv::JoinResume {
                    task: pnode.idx() as u32,
                },
            );
        }
        true
    }

    /// Run the whole computation, delegating every sweep to `policy`.
    pub fn drive(&mut self, policy: &mut dyn StealPolicy) {
        let region = self.stacks.new_region();
        self.start_node(0, self.comp.root, region);
        if self.trace.is_some() {
            self.emit(
                0,
                0,
                TrEv::RegionAttach {
                    task: self.comp.root.idx() as u32,
                    region,
                },
            );
        }
        self.clock.push(0, EvKind::Step(0));
        while let Some(ev) = self.clock.pop() {
            if self.done {
                break;
            }
            match ev.kind {
                EvKind::Step(c) => self.step(c as usize),
                EvKind::Sweep => {
                    self.clock.sweep_started();
                    self.sweep_now = ev.time;
                    policy.sweep(self, ev.time);
                }
            }
        }
        assert!(self.done, "event queue drained before completion");
        assert_eq!(self.executed, self.comp.work(), "not all accesses executed");
    }

    /// Extract the final [`ExecReport`].
    pub fn report(self) -> ExecReport {
        let makespan = self.cores.iter().map(|c| c.time).max().unwrap_or(0);
        let idle: Vec<u64> = self
            .cores
            .iter()
            .map(|c| makespan - c.busy - c.steal_overhead)
            .collect();
        let steal_attempts = self.steals + self.failed_rounds.len() as u64 + self.failed_probes;
        ExecReport {
            p: self.cfg.p,
            makespan,
            work: self.executed,
            machine: self.ms.stats(),
            heap_block_misses: self.heap_block_misses,
            stack_block_misses: self.stack_block_misses,
            stack_plain_misses: self.stack_plain_misses,
            steals: self.steals,
            // The sim steals one task per commit, always.
            stolen_tasks: self.steals,
            steal_attempts,
            steals_by_priority: self
                .steals_by_pri
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(p, &c)| (p as u32, c))
                .collect(),
            stolen_sizes: self.stolen_sizes,
            usurpations: self.usurpations,
            busy: self.cores.iter().map(|c| c.busy).collect(),
            steal_overhead: self.cores.iter().map(|c| c.steal_overhead).collect(),
            idle,
            n_priorities: self.comp.n_priorities,
            // The simulator has no elasticity: every configured core
            // participates in every run.
            workers_active: self.cfg.p,
        }
    }

    // --- queries and effects for StealPolicy implementations ---------------

    /// Number of simulated cores.
    pub fn p(&self) -> usize {
        self.cfg.p
    }

    /// Whether the root node has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether `core` is idle (a candidate thief).
    pub fn is_idle(&self, core: usize) -> bool {
        matches!(self.cores[core].state, CoreState::Idle)
    }

    /// Size of the root task (for §5.3's stealable-size floor).
    pub fn root_size(&self) -> u64 {
        self.comp.nodes[self.comp.root.idx()].size
    }

    /// Priority of the task at the top of `v`'s deque, if any.
    pub fn head_pri(&self, v: usize) -> Option<u32> {
        self.deques.head(v).map(|n| self.pri_of[n.idx()])
    }

    /// Size of the task at the top of `v`'s deque, if any.
    pub fn head_size(&self, v: usize) -> Option<u64> {
        self.deques.head(v).map(|n| self.comp.nodes[n.idx()].size)
    }

    /// §4.7's flagged upper bound: a busy core with an empty deque reports
    /// `priority(current node) − 1` for a task it may yet generate.
    pub fn pending_pri(&self, v: usize) -> Option<u32> {
        if !self.deques.is_empty(v) {
            return None;
        }
        match self.cores[v].state {
            CoreState::Run(c) => Some(self.pri_of[c.node.idx()].saturating_sub(1)),
            CoreState::Idle => None,
        }
    }

    /// Size of the node `v` is currently executing (`None` when idle).
    pub fn running_node_size(&self, v: usize) -> Option<u64> {
        match self.cores[v].state {
            CoreState::Run(c) => Some(self.comp.nodes[c.node.idx()].size),
            CoreState::Idle => None,
        }
    }

    /// Steal the top of `victim`'s deque for `thief`: charge `sP`, open a
    /// fresh stack region, start the task, and record the statistics. The
    /// victim's deque must be non-empty.
    pub fn commit_steal(&mut self, thief: usize, victim: usize, now: u64) {
        let node = self.deques.steal_top(victim).expect("victim head exists");
        self.steals += 1;
        let pri = self.pri_of[node.idx()];
        self.steals_by_pri[pri as usize] += 1;
        self.stolen_sizes.push(self.comp.nodes[node.idx()].size);
        if self.trace.is_some() {
            self.emit(
                thief,
                now,
                TrEv::StealCommit {
                    task: node.idx() as u32,
                    victim: victim as u32,
                    count: 1,
                    cross_domain: false,
                },
            );
        }
        let c = &mut self.cores[thief];
        c.idle_accum += now.saturating_sub(c.idle_since);
        c.time = now + self.cfg.steal_cost;
        c.steal_overhead += self.cfg.steal_cost;
        let region = self.stacks.new_region();
        self.start_node(thief, node, region);
        let t = self.cores[thief].time;
        if self.trace.is_some() {
            self.emit(
                thief,
                t,
                TrEv::RegionAttach {
                    task: node.idx() as u32,
                    region,
                },
            );
        }
        self.clock.push(t, EvKind::Step(thief as u32));
    }

    /// Record that `thief` sat out a round at priority `pri` (deduplicated
    /// per `(thief, pri)` pair — Cor 4.1's attempt accounting).
    pub fn note_failed_round(&mut self, thief: usize, pri: u32) {
        // Only a *newly* failed (thief, pri) pair emits a trace event, so
        // the traced attempt volume matches Cor 4.1's deduplicated count.
        if self.failed_rounds.insert((thief as u32, pri)) && self.trace.is_some() {
            self.emit(thief, self.sweep_now, TrEv::StealFail);
        }
    }

    /// Record an unsuccessful randomized probe by `thief` (RWS): charges
    /// the probe fee and counts toward steal attempts.
    pub fn note_failed_probe(&mut self, thief: usize) {
        self.failed_probes += 1;
        self.cores[thief].steal_overhead += self.cfg.probe_cost;
        if self.trace.is_some() {
            self.emit(thief, self.sweep_now, TrEv::StealFail);
        }
    }
}
