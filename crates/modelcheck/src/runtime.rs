//! The cooperative scheduler and the modeled memory state.
//!
//! One model execution runs the scenario body on fresh OS threads, but only
//! ever lets **one** of them make progress at a time: every instrumented
//! operation first calls into the scheduler, which may hand the single
//! execution token to another runnable thread. The sequence of scheduling
//! (and stale-read) decisions is recorded as a choice vector; the DFS
//! driver in [`mod@crate::explore`] enumerates those vectors.
//!
//! Memory model approximation (documented in DESIGN.md §5d):
//!
//! * every atomic location keeps its full **store history** in modification
//!   order, each store stamped with the storing thread's vector clock and
//!   whether it was a release store;
//! * a load may read any store not older than (a) the newest store that
//!   happens-before the load and (b) the last store this thread has already
//!   read from the location — so `Relaxed` and `Acquire` loads can legally
//!   observe stale values, and which value is read is itself an explored
//!   choice;
//! * `Acquire`/`SeqCst` loads that read a release store join the storer's
//!   clock (synchronizes-with); `SeqCst` loads are approximated as reading
//!   the newest store (no global S order is modeled);
//! * RMW operations always read the newest store;
//! * mutex unlock→lock edges and channel send→recv edges carry clocks the
//!   same way (release on the sending side, acquire on the receiving side).

use crate::clock::VClock;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

// ---------------------------------------------------------------------------
// thread-local execution context

thread_local! {
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// Which model execution (and which model thread) the current OS thread is.
#[derive(Clone)]
pub struct Ctx {
    pub(crate) shared: Arc<Shared>,
    pub(crate) tid: usize,
}

/// The current OS thread's model context, if it is part of an execution.
/// `None` means the shims pass straight through to the real primitives.
pub fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(ctx: Option<Ctx>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// Attach this OS thread to an execution as model thread `tid`.
pub(crate) fn enter(shared: Arc<Shared>, tid: usize) {
    set_current(Some(Ctx { shared, tid }));
}

/// Detach this OS thread from its execution.
pub(crate) fn leave() {
    set_current(None);
}

/// Sentinel panic payload used to unwind sibling threads once one thread
/// has recorded a failure (or the driver is tearing the execution down).
pub(crate) struct Abort;

// ---------------------------------------------------------------------------
// execution state

/// How the driver resolves choice points past the replayed prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Take branch 0; the DFS driver advances the prefix between runs.
    Dfs,
    /// Take a seeded-random branch (still recorded, so still replayable).
    Random,
    /// Past-prefix points take branch 0 (used when replaying a trace).
    Replay,
}

/// One recorded decision: which of `num` alternatives was taken.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Choice {
    pub taken: u32,
    pub num: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Run {
    Runnable,
    Blocked,
    Finished,
}

/// One store event in a location's modification order.
struct StoreEv {
    val: u64,
    clock: VClock,
    release: bool,
}

/// Modeled state of one atomic location (keyed by address).
#[derive(Default)]
struct Location {
    stores: Vec<StoreEv>,
    /// Per-thread index of the newest store already read (coherence floor).
    last_seen: HashMap<usize, usize>,
    /// Per-thread: did this thread's most recent load of this location
    /// synchronize with a release store? (`synchronized_last_load`.)
    synced_last: HashMap<usize, bool>,
}

impl Location {
    fn seeded(val: u64) -> Location {
        Location {
            // The pre-existing value behaves like an initialization store
            // that happens-before everything (bottom clock, release).
            stores: vec![StoreEv {
                val,
                clock: VClock::default(),
                release: true,
            }],
            last_seen: HashMap::new(),
            synced_last: HashMap::new(),
        }
    }
}

/// Modeled state of one mutex (keyed by address).
#[derive(Default)]
struct MutexSt {
    owner: Option<usize>,
    clock: VClock,
    waiters: Vec<usize>,
}

/// Modeled state of one mpsc channel (data lives typed in the shim).
#[derive(Default)]
struct ChanSt {
    /// One clock per queued message (release on send, acquire on recv).
    msg_clocks: std::collections::VecDeque<VClock>,
    senders: usize,
    recv_dropped: bool,
    /// A receiver blocked waiting for a message.
    waiting_recv: Option<usize>,
}

pub(crate) struct ExecState {
    threads: Vec<Run>,
    active: usize,
    pub(crate) choices: Vec<Choice>,
    cursor: usize,
    mode: Mode,
    rng: u64,
    preemptions: u32,
    bound: u32,
    steps: u64,
    max_steps: u64,
    pub(crate) trace: Vec<String>,
    pub(crate) failure: Option<String>,
    aborting: bool,
    clocks: Vec<VClock>,
    locations: HashMap<usize, Location>,
    mutexes: HashMap<usize, MutexSt>,
    channels: HashMap<u64, ChanSt>,
    next_chan: u64,
    join_waiters: HashMap<usize, Vec<usize>>,
}

/// The state of one execution, shared by its threads and the driver.
pub(crate) struct Shared {
    state: StdMutex<ExecState>,
    cv: Condvar,
}

type Guard<'a> = StdMutexGuard<'a, ExecState>;

impl ExecState {
    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| *t == Run::Finished)
    }

    /// Resolve an `n`-way choice point. Single-alternative points are not
    /// recorded, which keeps choice vectors stable across replays.
    fn choose(&mut self, n: u32) -> u32 {
        debug_assert!(n >= 1);
        if n <= 1 {
            return 0;
        }
        if self.cursor < self.choices.len() {
            let c = self.choices[self.cursor];
            self.cursor += 1;
            return c.taken.min(n - 1);
        }
        let taken = match self.mode {
            Mode::Dfs | Mode::Replay => 0,
            Mode::Random => {
                // xorshift64*: deterministic per seed.
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                (self.rng % n as u64) as u32
            }
        };
        self.choices.push(Choice { taken, num: n });
        self.cursor += 1;
        taken
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.aborting = true;
    }
}

impl Shared {
    pub(crate) fn new(
        bound: u32,
        max_steps: u64,
        mode: Mode,
        seed: u64,
        prefix: Vec<Choice>,
    ) -> Shared {
        let mut clock0 = VClock::default();
        clock0.tick(0);
        Shared {
            state: StdMutex::new(ExecState {
                threads: vec![Run::Runnable],
                active: 0,
                choices: prefix,
                cursor: 0,
                mode,
                rng: seed | 1,
                preemptions: 0,
                bound,
                steps: 0,
                max_steps,
                trace: Vec::new(),
                failure: None,
                aborting: false,
                clocks: vec![clock0],
                locations: HashMap::new(),
                mutexes: HashMap::new(),
                channels: HashMap::new(),
                next_chan: 0,
                join_waiters: HashMap::new(),
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> Guard<'_> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wait until this thread is runnable *and* holds the execution token.
    /// Panics with [`Abort`] when the execution is being torn down.
    fn wait_active<'a>(&'a self, mut st: Guard<'a>, tid: usize) -> Guard<'a> {
        loop {
            if st.aborting {
                drop(st);
                std::panic::panic_any(Abort);
            }
            if st.active == tid && st.threads[tid] == Run::Runnable {
                return st;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The scheduling half of every instrumented operation: count a step,
    /// let the scheduler pick who runs next (bounded preemption), and
    /// return with the state lock held once this thread is (still or
    /// again) the active one.
    fn step(&self, tid: usize) -> Guard<'_> {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            std::panic::panic_any(Abort);
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            let max = st.max_steps;
            st.fail(format!(
                "execution exceeded {max} steps (livelock or unbounded loop in scenario)"
            ));
            self.cv.notify_all();
            drop(st);
            std::panic::panic_any(Abort);
        }
        // Candidates: stay (index 0) first, then every other runnable
        // thread in tid order. Once the preemption budget is spent the
        // only candidate is "stay".
        let mut cands = vec![tid];
        if st.preemptions < st.bound {
            for t in 0..st.threads.len() {
                if t != tid && st.threads[t] == Run::Runnable {
                    cands.push(t);
                }
            }
        }
        let pick = st.choose(cands.len() as u32) as usize;
        let next = cands[pick];
        if next != tid {
            st.preemptions += 1;
            st.active = next;
            self.cv.notify_all();
            st = self.wait_active(st, tid);
        }
        st
    }

    /// This thread just blocked (or finished): hand the token to another
    /// runnable thread, or detect deadlock / completion.
    fn hand_off(&self, st: &mut Guard<'_>, tid: usize) {
        let cands: Vec<usize> = (0..st.threads.len())
            .filter(|&t| t != tid && st.threads[t] == Run::Runnable)
            .collect();
        if cands.is_empty() {
            if st.all_finished() {
                self.cv.notify_all(); // wake the driver
            } else if st.threads.contains(&Run::Blocked) {
                let who: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| **r == Run::Blocked)
                    .map(|(t, _)| format!("t{t}"))
                    .collect();
                st.fail(format!("deadlock: {} blocked forever", who.join(", ")));
                self.cv.notify_all();
            }
            return;
        }
        let pick = st.choose(cands.len() as u32) as usize;
        st.active = cands[pick];
        self.cv.notify_all();
    }

    /// Block the calling thread until `ready` yields a value. `register`
    /// runs right before each hand-off so wakers can find this thread.
    fn block_on<R>(
        &self,
        tid: usize,
        mut ready: impl FnMut(&mut ExecState) -> Option<R>,
        mut register: impl FnMut(&mut ExecState, usize),
    ) -> R {
        let mut st = self.step(tid);
        loop {
            if let Some(r) = ready(&mut st) {
                return r;
            }
            register(&mut st, tid);
            st.threads[tid] = Run::Blocked;
            self.hand_off(&mut st, tid);
            if st.aborting {
                drop(st);
                std::panic::panic_any(Abort);
            }
            st = self.wait_active(st, tid);
        }
    }

    fn trace(st: &mut ExecState, tid: usize, msg: impl FnOnce() -> String) {
        let line = format!("t{tid} {}", msg());
        st.trace.push(line);
    }

    // -- atomics ----------------------------------------------------------

    fn loc(st: &mut ExecState, addr: usize, seed: u64) -> &mut Location {
        st.locations
            .entry(addr)
            .or_insert_with(|| Location::seeded(seed))
    }

    /// Model an atomic load. Returns `(value, synchronized)`.
    pub(crate) fn atomic_load(
        &self,
        tid: usize,
        addr: usize,
        seed: u64,
        ord: Ordering,
        what: &str,
    ) -> (u64, bool) {
        let mut st = self.step(tid);
        let me = st.clocks[tid].clone();
        let loc = Self::loc(&mut st, addr, seed);
        let n = loc.stores.len();
        // Coherence floor: newest happens-before store, and never re-read
        // something older than what this thread already read here.
        let mut floor = 0;
        for (i, s) in loc.stores.iter().enumerate() {
            if s.clock.le(&me) {
                floor = i;
            }
        }
        if let Some(&seen) = loc.last_seen.get(&tid) {
            floor = floor.max(seen);
        }
        let acquire = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let idx = if ord == Ordering::SeqCst {
            // Approximation: SeqCst loads read the newest store.
            n - 1
        } else {
            // Branch 0 reads the newest store; branch k reads k stores back.
            let stale = st.choose((n - floor) as u32) as usize;
            let loc = Self::loc(&mut st, addr, seed);
            loc.stores.len() - 1 - stale
        };
        let loc = Self::loc(&mut st, addr, seed);
        let ev_val = loc.stores[idx].val;
        let ev_release = loc.stores[idx].release;
        let ev_clock = loc.stores[idx].clock.clone();
        loc.last_seen.insert(tid, idx);
        let synced = acquire && ev_release;
        loc.synced_last.insert(tid, synced);
        if synced {
            st.clocks[tid].join(&ev_clock);
        }
        Self::trace(&mut st, tid, || {
            format!(
                "load {what} -> {ev_val} ({ord:?}{})",
                if synced { ", synced" } else { "" }
            )
        });
        (ev_val, synced)
    }

    /// Did this thread's most recent modeled load of `addr` synchronize
    /// with a release store? `true` when the location was never loaded.
    pub(crate) fn synchronized_last_load(&self, tid: usize, addr: usize) -> bool {
        let st = self.lock();
        st.locations
            .get(&addr)
            .and_then(|l| l.synced_last.get(&tid).copied())
            .unwrap_or(true)
    }

    /// Model an atomic store. The shim stores through to the real atomic
    /// after this returns (the calling thread stays the only runner).
    pub(crate) fn atomic_store(
        &self,
        tid: usize,
        addr: usize,
        seed: u64,
        val: u64,
        ord: Ordering,
        what: &str,
    ) {
        let mut st = self.step(tid);
        st.clocks[tid].tick(tid);
        let clock = st.clocks[tid].clone();
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        let loc = Self::loc(&mut st, addr, seed);
        loc.stores.push(StoreEv {
            val,
            clock,
            release,
        });
        let idx = loc.stores.len() - 1;
        loc.last_seen.insert(tid, idx);
        Self::trace(&mut st, tid, || format!("store {what} = {val} ({ord:?})"));
    }

    /// Model a read-modify-write (always reads the newest store). Returns
    /// the previous value; the shim stores the new value through.
    pub(crate) fn atomic_rmw(
        &self,
        tid: usize,
        addr: usize,
        seed: u64,
        f: &dyn Fn(u64) -> u64,
        ord: Ordering,
        what: &str,
    ) -> u64 {
        let mut st = self.step(tid);
        let me_acquires = matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let release = matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        let loc = Self::loc(&mut st, addr, seed);
        let last = loc.stores.last().expect("location always has a store");
        let old = last.val;
        let last_release = last.release;
        let last_clock = last.clock.clone();
        if me_acquires && last_release {
            st.clocks[tid].join(&last_clock);
        }
        st.clocks[tid].tick(tid);
        let clock = st.clocks[tid].clone();
        let new = f(old);
        let loc = Self::loc(&mut st, addr, seed);
        loc.stores.push(StoreEv {
            val: new,
            clock,
            release,
        });
        let idx = loc.stores.len() - 1;
        loc.last_seen.insert(tid, idx);
        loc.synced_last.insert(tid, me_acquires && last_release);
        Self::trace(&mut st, tid, || {
            format!("rmw {what} {old} -> {new} ({ord:?})")
        });
        old
    }

    /// Forget a location (the owning atomic was dropped inside the model;
    /// its address may be reused by a fresh allocation).
    pub(crate) fn atomic_forget(&self, addr: usize) {
        self.lock().locations.remove(&addr);
    }

    /// Drop model state for a consumed mutex (its address may be reused).
    pub(crate) fn mutex_forget(&self, addr: usize) {
        self.lock().mutexes.remove(&addr);
    }

    // -- mutexes ----------------------------------------------------------

    pub(crate) fn mutex_lock(&self, tid: usize, addr: usize) {
        self.block_on(
            tid,
            |st| {
                let m = st.mutexes.entry(addr).or_default();
                if m.owner.is_none() {
                    m.owner = Some(tid);
                    let mc = m.clock.clone();
                    st.clocks[tid].join(&mc);
                    Self::trace(st, tid, || format!("lock mutex@{:#x}", addr & 0xffff));
                    Some(())
                } else {
                    None
                }
            },
            |st, me| {
                let m = st.mutexes.entry(addr).or_default();
                if !m.waiters.contains(&me) {
                    m.waiters.push(me);
                }
            },
        );
    }

    pub(crate) fn mutex_try_lock(&self, tid: usize, addr: usize) -> bool {
        let mut st = self.step(tid);
        let m = st.mutexes.entry(addr).or_default();
        if m.owner.is_none() {
            m.owner = Some(tid);
            let mc = m.clock.clone();
            st.clocks[tid].join(&mc);
            Self::trace(&mut st, tid, || {
                format!("try_lock mutex@{:#x} ok", addr & 0xffff)
            });
            true
        } else {
            Self::trace(&mut st, tid, || {
                format!("try_lock mutex@{:#x} busy", addr & 0xffff)
            });
            false
        }
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, addr: usize) {
        let mut st = self.step(tid);
        Self::release_mutex(&mut st, tid, addr);
        Self::trace(&mut st, tid, || {
            format!("unlock mutex@{:#x}", addr & 0xffff)
        });
    }

    /// Unlock without scheduling or abort panics — used from guard drops
    /// that run while the thread is already unwinding.
    pub(crate) fn mutex_unlock_quiet(&self, tid: usize, addr: usize) {
        let mut st = self.lock();
        Self::release_mutex(&mut st, tid, addr);
        self.cv.notify_all();
    }

    fn release_mutex(st: &mut ExecState, tid: usize, addr: usize) {
        st.clocks[tid].tick(tid);
        let me = st.clocks[tid].clone();
        let m = st.mutexes.entry(addr).or_default();
        m.owner = None;
        m.clock.join(&me);
        let waiters = std::mem::take(&mut m.waiters);
        for w in waiters {
            if st.threads[w] == Run::Blocked {
                st.threads[w] = Run::Runnable;
            }
        }
    }

    // -- channels ---------------------------------------------------------

    pub(crate) fn chan_new(&self) -> u64 {
        let mut st = self.lock();
        let id = st.next_chan;
        st.next_chan += 1;
        st.channels.insert(
            id,
            ChanSt {
                senders: 1,
                ..ChanSt::default()
            },
        );
        id
    }

    /// Model a send. Returns `false` when the receiver is gone (the shim
    /// then returns `SendError` and does not enqueue the value).
    pub(crate) fn chan_send(&self, tid: usize, id: u64) -> bool {
        let mut st = self.step(tid);
        st.clocks[tid].tick(tid);
        let clock = st.clocks[tid].clone();
        let Some(ch) = st.channels.get_mut(&id) else {
            return true;
        };
        if ch.recv_dropped {
            Self::trace(&mut st, tid, || format!("send chan#{id} -> disconnected"));
            return false;
        }
        ch.msg_clocks.push_back(clock);
        let wake = ch.waiting_recv.take();
        if let Some(w) = wake {
            if st.threads[w] == Run::Blocked {
                st.threads[w] = Run::Runnable;
            }
        }
        Self::trace(&mut st, tid, || format!("send chan#{id}"));
        true
    }

    /// Model a blocking recv. `Ok(())` means a message clock was consumed
    /// and the shim must pop the matching value; `Err` means disconnected.
    pub(crate) fn chan_recv(&self, tid: usize, id: u64) -> Result<(), ()> {
        self.block_on(
            tid,
            |st| {
                let ch = st.channels.entry(id).or_default();
                if let Some(clock) = ch.msg_clocks.pop_front() {
                    st.clocks[tid].join(&clock);
                    Self::trace(st, tid, || format!("recv chan#{id}"));
                    return Some(Ok(()));
                }
                if ch.senders == 0 {
                    Self::trace(st, tid, || format!("recv chan#{id} -> disconnected"));
                    return Some(Err(()));
                }
                None
            },
            |st, me| {
                st.channels.entry(id).or_default().waiting_recv = Some(me);
            },
        )
    }

    /// Model a try_recv: `Ok(())` = pop one, `Err(true)` = disconnected,
    /// `Err(false)` = empty.
    pub(crate) fn chan_try_recv(&self, tid: usize, id: u64) -> Result<(), bool> {
        let mut st = self.step(tid);
        let ch = st.channels.entry(id).or_default();
        if let Some(clock) = ch.msg_clocks.pop_front() {
            st.clocks[tid].join(&clock);
            Self::trace(&mut st, tid, || format!("try_recv chan#{id}"));
            return Ok(());
        }
        let disconnected = ch.senders == 0;
        Err(disconnected)
    }

    pub(crate) fn chan_sender_cloned(&self, id: u64) {
        let mut st = self.lock();
        if let Some(ch) = st.channels.get_mut(&id) {
            ch.senders += 1;
        }
    }

    pub(crate) fn chan_sender_dropped(&self, id: u64) {
        let mut st = self.lock();
        let Some(ch) = st.channels.get_mut(&id) else {
            return;
        };
        ch.senders = ch.senders.saturating_sub(1);
        if ch.senders == 0 {
            if let Some(w) = ch.waiting_recv.take() {
                if st.threads[w] == Run::Blocked {
                    st.threads[w] = Run::Runnable;
                }
                self.cv.notify_all();
            }
        }
    }

    pub(crate) fn chan_receiver_dropped(&self, id: u64) {
        let mut st = self.lock();
        if let Some(ch) = st.channels.get_mut(&id) {
            ch.recv_dropped = true;
        }
    }

    // -- threads ----------------------------------------------------------

    /// Register a child thread (spawn has release semantics: the child
    /// starts with a copy of the parent's clock).
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = self.step(parent);
        st.clocks[parent].tick(parent);
        let mut child_clock = st.clocks[parent].clone();
        let tid = st.threads.len();
        child_clock.tick(tid);
        st.threads.push(Run::Runnable);
        st.clocks.push(child_clock);
        Self::trace(&mut st, parent, || format!("spawn t{tid}"));
        tid
    }

    /// First thing a child OS thread does: wait to be scheduled.
    pub(crate) fn wait_first_schedule(&self, tid: usize) {
        let st = self.lock();
        drop(self.wait_active(st, tid));
    }

    /// Block until `target` finishes (join has acquire semantics).
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        self.block_on(
            tid,
            |st| {
                if st.threads[target] == Run::Finished {
                    let tc = st.clocks[target].clone();
                    st.clocks[tid].join(&tc);
                    Self::trace(st, tid, || format!("join t{target}"));
                    Some(())
                } else {
                    None
                }
            },
            |st, me| {
                let w = st.join_waiters.entry(target).or_default();
                if !w.contains(&me) {
                    w.push(me);
                }
            },
        );
    }

    /// Record a user-code panic as the execution's failure.
    pub(crate) fn record_failure(&self, tid: usize, msg: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(format!("t{tid} panicked: {msg}"));
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Last thing a child OS thread does. Wakes joiners and hands off.
    pub(crate) fn exit_thread(&self, tid: usize) {
        let mut st = self.lock();
        st.clocks[tid].tick(tid);
        st.threads[tid] = Run::Finished;
        if let Some(waiters) = st.join_waiters.remove(&tid) {
            for w in waiters {
                if st.threads[w] == Run::Blocked {
                    st.threads[w] = Run::Runnable;
                }
            }
        }
        if st.aborting {
            self.cv.notify_all();
            return;
        }
        Self::trace(&mut st, tid, || "exit".to_string());
        self.hand_off(&mut st, tid);
        self.cv.notify_all();
    }

    /// Driver side: wait until every model thread has finished.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock();
        while !st.all_finished() {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub(crate) fn take_result(&self) -> (Option<String>, Vec<Choice>, Vec<String>) {
        let mut st = self.lock();
        (
            st.failure.take(),
            std::mem::take(&mut st.choices),
            std::mem::take(&mut st.trace),
        )
    }
}

// ---------------------------------------------------------------------------
// one execution

/// Run `body` once as model thread 0 of a fresh execution and return
/// `(failure, realized choices, trace)`.
pub(crate) fn run_once(
    shared: Arc<Shared>,
    body: Arc<dyn Fn() + Send + Sync>,
) -> (Option<String>, Vec<Choice>, Vec<String>) {
    let sh = Arc::clone(&shared);
    let handle = std::thread::Builder::new()
        .name("modelcheck-t0".into())
        .spawn(move || {
            set_current(Some(Ctx {
                shared: Arc::clone(&sh),
                tid: 0,
            }));
            let r = catch_unwind(AssertUnwindSafe(|| body()));
            if let Err(payload) = r {
                if !payload.is::<Abort>() {
                    sh.record_failure(0, payload_message(payload.as_ref()));
                }
            }
            set_current(None);
            sh.exit_thread(0);
        })
        .expect("spawn model thread 0");
    shared.wait_all_finished();
    let _ = handle.join();
    shared.take_result()
}

/// Render a panic payload for the failure report.
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
