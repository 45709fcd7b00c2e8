//! One SMT hardware context: architectural state plus its ROB window.

use crate::isa::{Inst, Reg};
use crate::program::Program;
use crate::rob::{RobEntry, RobState, Src, NO_SLOT};
use crate::stats::ContextStats;
use microscope_cache::{LineAddr, PAddr};
use microscope_mem::AddressSpace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Identifies a hardware context (0 or 1 on a 2-way SMT core).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContextId(pub usize);

impl From<usize> for ContextId {
    fn from(v: usize) -> Self {
        ContextId(v)
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// An active hardware transaction (Intel-TSX-style).
#[derive(Clone, Debug)]
pub struct Txn {
    /// Where control transfers on abort.
    pub abort_target: usize,
    /// Architectural register snapshot restored on abort.
    pub snapshot_regs: [u64; Reg::COUNT],
    /// Buffered (not yet globally visible) stores: (paddr, value, size).
    pub write_buffer: Vec<(PAddr, u64, u8)>,
    /// Cache lines in the write set; losing any of them from the cache
    /// hierarchy aborts the transaction — the §7.1 attacker-controlled
    /// replay handle ("TSX will abort a transaction if dirty data is evicted
    /// from the private cache").
    pub write_lines: Vec<LineAddr>,
}

impl Txn {
    /// The most recent buffered value covering `paddr` with `size`, if any
    /// (transactional store-to-load forwarding).
    pub fn forwarded_value(&self, paddr: PAddr, size: u8) -> Option<u64> {
        self.write_buffer
            .iter()
            .rev()
            .find(|(p, _, s)| *p == paddr && *s == size)
            .map(|(_, v, _)| *v)
    }
}

/// Abort cause codes written to [`Reg::TXN_ABORT_CODE`].
pub(crate) mod abort_code {
    /// Page fault inside the transaction.
    pub const FAULT: u64 = 1;
    /// Write-set line lost from the cache hierarchy (conflict/eviction).
    pub const CONFLICT: u64 = 2;
    /// Explicit `XAbort` (the code operand occupies the upper byte).
    pub const EXPLICIT: u64 = 3;
}

/// One hardware context.
#[derive(Clone, Debug)]
pub struct Context {
    /// This context's id.
    pub(crate) id: ContextId,
    /// The program it runs.
    pub(crate) program: Program,
    /// Its address space (CR3 + PCID).
    pub(crate) aspace: AddressSpace,
    /// Next fetch pc.
    pub(crate) pc: usize,
    /// Architectural register file.
    pub(crate) arch_regs: [u64; Reg::COUNT],
    /// The reorder buffer window. Its entries occupy consecutive slots
    /// (see [`Context::slot_index`]).
    pub(crate) rob: VecDeque<RobEntry>,
    /// Register alias table: slot of the youngest in-flight producer per
    /// register.
    pub(crate) rat: [Option<u64>; Reg::COUNT],
    /// Set when `Halt` retires (or the program runs out with an empty ROB).
    pub(crate) halted: bool,
    /// Set when fetch passed a `Halt` or the end of the program.
    pub(crate) fetch_stopped: bool,
    /// Fetch resumes at this cycle (squash penalties, fault handlers).
    pub(crate) fetch_stalled_until: u64,
    /// RDRAND entropy seed (deterministic per context).
    pub(crate) rdrand_seed: u64,
    /// Active transaction, if any.
    pub(crate) txn: Option<Txn>,
    /// The next dispatched instruction must act as a fence
    /// (fence-after-pipeline-flush defense).
    pub(crate) post_flush_fence: bool,
    /// Stepping interrupt period (retired instructions), if armed.
    pub(crate) step_every: Option<u64>,
    /// Retired instructions since the last stepping interrupt.
    pub(crate) retires_since_step: u64,
    /// Issue candidates: slots of the `Waiting` entries whose operands
    /// are all ready, oldest first. Dispatch and value delivery add to it;
    /// issue removes what it issues.
    pub(crate) ready: Vec<u64>,
    /// In-flight operations as a min-queue of `(done_at, slot)`: exactly
    /// the `Executing` entries.
    pub(crate) completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Slots of the `blocks_younger` entries not yet `Done`, oldest first.
    pub(crate) blockers: Vec<u64>,
    /// Slots of the stores not yet issued, oldest first. The
    /// issue stage prunes the stores it issued only once it is over, so
    /// every load it visits sees the stores that were unissued when the
    /// stage began.
    pub(crate) unissued_stores: Vec<u64>,
    /// Position of the next issue candidate in `ready` while the issue
    /// stage walks it (meaningless outside that stage).
    pub(crate) issue_cursor: usize,
    /// Statistics.
    pub(crate) stats: ContextStats,
}

impl Context {
    pub(crate) fn new(id: ContextId, program: Program, aspace: AddressSpace, seed: u64) -> Self {
        Context {
            id,
            program,
            aspace,
            pc: 0,
            arch_regs: [0; Reg::COUNT],
            rob: VecDeque::new(),
            rat: [None; Reg::COUNT],
            halted: false,
            fetch_stopped: false,
            fetch_stalled_until: 0,
            rdrand_seed: seed,
            txn: None,
            post_flush_fence: false,
            step_every: None,
            retires_since_step: 0,
            ready: Vec::new(),
            completions: BinaryHeap::new(),
            blockers: Vec::new(),
            unissued_stores: Vec::new(),
            issue_cursor: 0,
            stats: ContextStats::default(),
        }
    }

    /// This context's id.
    pub fn id(&self) -> ContextId {
        self.id
    }

    /// The architectural (retired) value of a register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.arch_regs[r.index()]
    }

    /// The architectural value of a register, as an `f64`.
    pub fn reg_f64(&self, r: Reg) -> f64 {
        f64::from_bits(self.reg(r))
    }

    /// Sets a register architecturally (host-side setup between runs).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        self.arch_regs[r.index()] = value;
    }

    /// The context's address space handle.
    pub fn aspace(&self) -> AddressSpace {
        self.aspace
    }

    /// Current fetch pc.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Whether the context has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether a transaction is active.
    pub fn in_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// The program this context runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution statistics.
    pub fn stats(&self) -> &ContextStats {
        &self.stats
    }

    /// Number of in-flight (un-retired) instructions.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// ROB position of the live entry in `slot`.
    ///
    /// Dispatch numbers the entries of a window consecutively (a slot is
    /// never 0), so this is a subtraction. A slot past the youngest entry
    /// belongs to a squashed entry; squashes erase every link into the
    /// dropped slots before dispatch hands them out again.
    pub(crate) fn slot_index(&self, slot: u64) -> Option<usize> {
        let front = self.rob.front()?.slot;
        let i = usize::try_from(slot.checked_sub(front)?).ok()?;
        (i < self.rob.len()).then_some(i)
    }

    /// The live entry in `slot`.
    pub(crate) fn at_slot(&self, slot: u64) -> &RobEntry {
        &self.rob[self.slot_index(slot).expect("slot of a live entry")]
    }

    /// Appends a freshly fetched entry to the window: captures its source
    /// operands through the RAT, renames its destination, registers it
    /// with the producers it waits on and files it with the issue-stage
    /// lists.
    pub(crate) fn dispatch(&mut self, mut entry: RobEntry) {
        let slot = self.rob.back().map_or(1, |e| e.slot + 1);
        entry.slot = slot;
        let mut producers = [NO_SLOT; 2];
        for (i, r) in entry.inst.sources().iter().enumerate() {
            let src = match self.rat[r.index()] {
                Some(pslot) => {
                    let producer = self.at_slot(pslot);
                    if producer.state == RobState::Done {
                        Src::Ready(producer.value)
                    } else {
                        // An operand pair waiting on one producer links once.
                        if producers[0] != pslot {
                            producers[i] = pslot;
                        }
                        Src::Pending(producer.seq)
                    }
                }
                None => Src::Ready(self.arch_regs[r.index()]),
            };
            entry.srcs.push(src);
        }
        if let Some(dst) = entry.dst() {
            self.rat[dst.index()] = Some(slot);
        }
        if entry.is_ready() {
            self.ready.push(slot);
        }
        if entry.blocks_younger {
            self.blockers.push(slot);
        }
        if matches!(entry.inst, Inst::Store { .. }) {
            self.unissued_stores.push(slot);
        }
        self.rob.push_back(entry);
        for p in producers.into_iter().filter(|&p| p != NO_SLOT) {
            self.register_consumer(p, slot);
        }
    }

    /// Links the entry in slot `c` at the young end of the consumer list
    /// of the producer in slot `p`. A squash may have cut the list's young
    /// end, so the link goes after the youngest consumer still there.
    fn register_consumer(&mut self, p: u64, c: u64) {
        let pi = self
            .slot_index(p)
            .expect("pending operand names a live producer");
        let pseq = self.rob[pi].seq;
        let mut last = self.slot_index(self.rob[pi].wake.last);
        if last.is_none() {
            let mut cur = self.rob[pi].wake.first;
            while let Some(ci) = self.slot_index(cur) {
                last = Some(ci);
                cur = self.next_consumer(ci, pseq);
            }
        }
        match last {
            Some(li) => {
                let i = self.rob[li]
                    .pending_slot(pseq)
                    .expect("linked consumer waits");
                self.rob[li].wake.next[i] = c;
            }
            None => self.rob[pi].wake.first = c,
        }
        self.rob[pi].wake.last = c;
    }

    /// The consumer after the one at `ci` in the list of the producer with
    /// sequence number `pseq`.
    fn next_consumer(&self, ci: usize, pseq: u64) -> u64 {
        let e = &self.rob[ci];
        e.pending_slot(pseq).map_or(NO_SLOT, |i| e.wake.next[i])
    }

    /// Delivers the value of the producer at `pi` to its registered
    /// consumers, moving every consumer that became ready onto the ready
    /// list.
    pub(crate) fn wake_consumers(&mut self, pi: usize) {
        let (pseq, value) = (self.rob[pi].seq, self.rob[pi].value);
        let mut cur = std::mem::take(&mut self.rob[pi].wake).first;
        while let Some(ci) = self.slot_index(cur) {
            let slot = cur;
            cur = self.next_consumer(ci, pseq);
            let e = &mut self.rob[ci];
            e.deliver(pseq, value);
            if e.is_ready() {
                let at = self.ready.partition_point(|&s| s < slot);
                self.ready.insert(at, slot);
            }
        }
    }

    /// Cycle of the earliest in-flight completion.
    pub(crate) fn next_completion(&self) -> Option<u64> {
        self.completions.peek().map(|Reverse((at, _))| *at)
    }

    /// Rebuilds the register alias table from the surviving ROB entries
    /// (after a squash).
    pub(crate) fn rebuild_rat(&mut self) {
        self.rat = [None; Reg::COUNT];
        for e in &self.rob {
            if let Some(dst) = e.dst() {
                self.rat[dst.index()] = Some(e.slot);
            }
        }
    }

    /// Halts the context. Its window is empty or discarded, and a halted
    /// context never refills it, so its storage is released too (every
    /// checkpoint and restore clones the contexts).
    pub(crate) fn halt(&mut self) {
        self.squash_all();
        self.rob = VecDeque::new();
        self.halted = true;
    }

    /// Discards every in-flight instruction; returns how many were dropped.
    pub(crate) fn squash_all(&mut self) -> usize {
        let n = self.rob.len();
        self.rob.clear();
        self.rat = [None; Reg::COUNT];
        self.ready.clear();
        self.completions.clear();
        self.blockers.clear();
        self.unissued_stores.clear();
        n
    }

    /// Discards entries strictly younger than `seq`; returns the count.
    ///
    /// The next dispatch reuses the dropped slots, so every link into them
    /// is erased here.
    pub(crate) fn squash_younger_than(&mut self, seq: u64) -> usize {
        let keep = self.rob.partition_point(|e| e.seq <= seq);
        let n = self.rob.len() - keep;
        self.rob.truncate(keep);
        let last = self.rob.back().map_or(NO_SLOT, |e| e.slot);
        for e in &mut self.rob {
            let w = &mut e.wake;
            let [next0, next1] = &mut w.next;
            for link in [&mut w.first, &mut w.last, next0, next1] {
                if *link > last {
                    *link = NO_SLOT;
                }
            }
        }
        self.rebuild_rat();
        for list in [
            &mut self.ready,
            &mut self.blockers,
            &mut self.unissued_stores,
        ] {
            list.truncate(list.partition_point(|&s| s <= last));
        }
        self.completions.retain(|Reverse((_, s))| *s <= last);
        n
    }

    /// Recomputes every incrementally kept structure from the ROB alone
    /// and panics on the first disagreement: the ready list, the
    /// completion queue, consumer registration of every pending operand,
    /// the blocker and unissued-store lists, and the RAT.
    ///
    /// # Panics
    ///
    /// Panics with the context and the structure that disagrees.
    pub fn check_invariants(&self) {
        let id = self.id;
        let (mut ready, mut blockers) = (self.ready.iter(), self.blockers.iter());
        let mut stores = self.unissued_stores.iter();
        let mut executing: Vec<(u64, u64)> = Vec::new();
        let mut rat = [None; Reg::COUNT];
        let (mut prev, mut pending_pairs) = (0, 0usize);
        let first_slot = self.rob.front().map_or(1, |e| e.slot);
        assert_ne!(first_slot, NO_SLOT, "{id}: slot 0 is reserved");
        for (i, e) in self.rob.iter().enumerate() {
            assert!(e.seq > prev, "{id}: ROB out of age order at {}", e.seq);
            assert_eq!(e.slot, first_slot + i as u64, "{id}: ROB slots");
            prev = e.seq;
            if e.is_ready() {
                assert_eq!(ready.next(), Some(&e.slot), "{id}: ready list");
            }
            if e.blocks_younger && e.state != RobState::Done {
                assert_eq!(blockers.next(), Some(&e.slot), "{id}: blocker list");
            }
            if matches!(e.inst, Inst::Store { .. }) && e.state == RobState::Waiting {
                assert_eq!(stores.next(), Some(&e.slot), "{id}: unissued-store list");
            }
            if let RobState::Executing { done_at } = e.state {
                executing.push((done_at, e.slot));
            }
            if let Some(dst) = e.dst() {
                rat[dst.index()] = Some(e.slot);
            }
            for (i, src) in e.srcs.iter().enumerate() {
                let Src::Pending(p) = *src else { continue };
                let producer = self.rob.get(self.rob.partition_point(|o| o.seq < p));
                let producer = producer.filter(|o| o.seq == p);
                assert!(
                    producer.is_some_and(|o| o.state != RobState::Done),
                    "{id}: entry {} waits on {p}, which is not in flight",
                    e.seq
                );
                pending_pairs += usize::from(e.pending_slot(p) == Some(i));
            }
        }
        assert_eq!(ready.next(), None, "{id}: ready list");
        assert_eq!(blockers.next(), None, "{id}: blocker list");
        assert_eq!(stores.next(), None, "{id}: unissued-store list");
        let mut queued: Vec<(u64, u64)> = self.completions.iter().map(|r| r.0).collect();
        queued.sort_unstable();
        executing.sort_unstable();
        assert_eq!(queued, executing, "{id}: completion queue");
        assert_eq!(self.rat, rat, "{id}: RAT");
        // Each list is strictly age-ordered and links only entries waiting
        // on its producer, so its pairs are distinct pending operands; as
        // many pairs as pending operands means every one is registered.
        let mut linked = 0usize;
        for p in &self.rob {
            let (mut cur, mut last) = (p.wake.first, p.slot);
            while let Some(ci) = self.slot_index(cur) {
                assert!(cur > last, "{id}: consumer list of {} out of order", p.seq);
                assert!(
                    self.rob[ci].pending_slot(p.seq).is_some(),
                    "{id}: slot {cur} is linked to {} but does not wait on it",
                    p.seq
                );
                linked += 1;
                last = cur;
                cur = self.next_consumer(ci, p.seq);
            }
        }
        assert_eq!(linked, pending_pairs, "{id}: consumer registration");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AluOp;
    use microscope_mem::PhysMem;

    fn entry(seq: u64, inst: Inst) -> RobEntry {
        RobEntry {
            seq,
            pc: 0,
            inst,
            state: RobState::Waiting,
            value: 0,
            srcs: Default::default(),
            fault: None,
            predicted_taken: false,
            mem_addr: None,
            store_value: None,
            fill_at_retire: None,
            blocks_younger: false,
            exec_at_head: false,
            dispatched_at: 0,
            slot: 0,
            wake: Default::default(),
        }
    }

    /// `dst = src + 0`.
    fn add(seq: u64, dst: Reg, src: Reg) -> RobEntry {
        let inst = Inst::AluImm {
            op: AluOp::Add,
            dst,
            a: src,
            imm: 0,
        };
        entry(seq, inst)
    }

    fn ctx() -> Context {
        let mut phys = PhysMem::new();
        let asp = AddressSpace::new(&mut phys, 1);
        Context::new(ContextId(0), Program::new(vec![Inst::Halt]), asp, 1)
    }

    /// Moves a ready entry onto an execution unit, as the issue stage does.
    fn issue(c: &mut Context, slot: u64, done_at: u64) {
        let i = c.slot_index(slot).unwrap();
        c.rob[i].state = RobState::Executing { done_at };
        c.ready.retain(|&s| s != slot);
        c.unissued_stores.retain(|&s| s != slot);
        c.completions.push(Reverse((done_at, slot)));
    }

    #[test]
    fn squash_younger_keeps_prefix_and_rebuilds_rat() {
        let mut c = ctx();
        let store = Inst::Store {
            src: Reg(1),
            base: Reg(0),
            offset: 0,
            size: 8,
        };
        let mut fence = entry(13, Inst::Fence);
        fence.blocks_younger = true;
        // Sequence numbers 11..=16 land in slots 1..=6.
        c.dispatch(add(11, Reg(1), Reg(0)));
        issue(&mut c, 1, 10);
        c.dispatch(add(12, Reg(2), Reg(1)));
        c.dispatch(fence);
        c.dispatch(entry(14, store));
        c.dispatch(add(15, Reg(1), Reg(2)));
        c.dispatch(add(16, Reg(3), Reg(0)));
        issue(&mut c, 6, 12);
        c.check_invariants();
        assert_eq!(c.rob[1].srcs.as_slice(), [Src::Pending(11)]);
        assert_eq!(c.rob[3].srcs.as_slice(), [Src::Pending(11), Src::Ready(0)]);
        assert_eq!(c.rat[1], Some(5));
        assert_eq!(c.ready, [3]);
        assert_eq!(c.blockers, [3]);
        assert_eq!(c.unissued_stores, [4]);
        assert_eq!(c.completions.len(), 2);

        let dropped = c.squash_younger_than(13);
        assert_eq!(dropped, 3);
        assert_eq!(c.rob.len(), 3);
        assert_eq!(c.rat[1], Some(1), "RAT points at surviving producer");
        assert_eq!(c.rat[2], Some(2));
        assert_eq!(c.rat[3], None);
        assert!(c.unissued_stores.is_empty(), "the squashed store left");
        assert_eq!(
            c.next_completion(),
            Some(10),
            "the squashed op left the queue"
        );
        assert_eq!(c.completions.len(), 1);
        c.check_invariants();

        // A new consumer of 11 reuses the squashed store's slot and links
        // past it; completing 11 wakes both survivors in age order.
        c.dispatch(add(17, Reg(4), Reg(1)));
        assert_eq!(c.rob[3].slot, 4);
        c.check_invariants();
        let Reverse((_, slot)) = c.completions.pop().unwrap();
        let i = c.slot_index(slot).unwrap();
        c.rob[i].state = RobState::Done;
        c.rob[i].value = 40;
        c.wake_consumers(i);
        assert_eq!(c.ready, [2, 3, 4]);
        assert_eq!(c.rob[3].src_values(), [40, 0]);
        c.check_invariants();
    }

    #[test]
    #[should_panic(expected = "ready list")]
    fn invariant_check_catches_a_lost_candidate() {
        let mut c = ctx();
        c.dispatch(add(1, Reg(1), Reg(0)));
        c.ready.clear();
        c.check_invariants();
    }

    #[test]
    fn squash_all_clears_everything() {
        let mut c = ctx();
        c.dispatch(add(1, Reg(1), Reg(0)));
        c.dispatch(add(2, Reg(2), Reg(1)));
        issue(&mut c, 1, 5);
        assert_eq!(c.squash_all(), 2);
        assert_eq!(c.rob_occupancy(), 0);
        assert!(c.rat.iter().all(Option::is_none));
        assert!(c.ready.is_empty() && c.completions.is_empty());
        c.check_invariants();
    }

    #[test]
    fn txn_forwarding_returns_youngest_match() {
        let t = Txn {
            abort_target: 0,
            snapshot_regs: [0; Reg::COUNT],
            write_buffer: vec![
                (PAddr(0x100), 1, 8),
                (PAddr(0x100), 2, 8),
                (PAddr(0x108), 3, 8),
            ],
            write_lines: vec![],
        };
        assert_eq!(t.forwarded_value(PAddr(0x100), 8), Some(2));
        assert_eq!(t.forwarded_value(PAddr(0x100), 4), None, "size must match");
        assert_eq!(t.forwarded_value(PAddr(0x110), 8), None);
    }

    #[test]
    fn reg_f64_round_trip() {
        let mut c = ctx();
        c.set_reg(Reg(5), 2.5f64.to_bits());
        assert_eq!(c.reg_f64(Reg(5)), 2.5);
    }
}
