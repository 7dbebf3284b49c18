//! The seeded request stream of the `serve_*` workloads.
//!
//! The stream is a pure function of its seed and parameters and uses
//! its own generator, not the repo's `rand` shim, so a change to the
//! program under test can never change the benchmark's inputs.
//!
//! Shape: connect random *idle* terminal pairs until `hold` circuits
//! are up, then alternate "disconnect the oldest, connect a new one"
//! forever. Because one connection is served first-in first-out, the
//! generator's own idle bookkeeping matches the server's, so on a
//! nonblocking fabric every connect must be answered `Ok`. With a
//! [`Storm`], every `every` circuits a wave of `size` `FAULT`s on
//! distinct healthy switches, or the `REPAIR`s of the previous wave,
//! is spliced in.

use std::collections::VecDeque;

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, seedable, and good
/// enough to pick terminals and switches.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose whole output is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias of at most `n / 2⁶⁴`
    /// is irrelevant for picking among a few thousand switches).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// One request of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Establish circuit `id` from input terminal `src` to output `dst`.
    Connect { id: u64, src: u32, dst: u32 },
    /// Release circuit `id`.
    Disconnect { id: u64 },
    /// Fail `switch`.
    Fault { switch: u32 },
    /// Repair `switch`.
    Repair { switch: u32 },
}

/// Fault-storm parameters of a stream.
#[derive(Clone, Copy, Debug)]
pub struct Storm {
    /// Switches in the fabric (faults pick among `0..switches`).
    pub switches: usize,
    /// Switches failed per wave (and repaired by the next one).
    pub size: usize,
    /// Circuits connected between consecutive waves.
    pub every: u64,
}

/// The endless seeded stream; see the module docs.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: SplitMix64,
    hold: usize,
    idle_in: Vec<u32>,
    idle_out: Vec<u32>,
    /// Circuits up, oldest first.
    live: VecDeque<(u64, u32, u32)>,
    next_id: u64,
    storm: Option<Storm>,
    /// Switches the last fault wave took down, not yet repaired.
    down: Vec<u32>,
    since_wave: u64,
    /// A wave being emitted.
    queued: VecDeque<Op>,
}

impl OpStream {
    /// A stream over a fabric with `terminals` inputs and outputs that
    /// keeps `hold` circuits up.
    ///
    /// # Panics
    /// Panics unless `1 <= hold <= terminals`, or if a storm wave is
    /// larger than the fabric.
    pub fn new(seed: u64, terminals: usize, hold: usize, storm: Option<Storm>) -> Self {
        assert!(
            hold >= 1 && hold <= terminals,
            "hold must be in 1..=terminals"
        );
        if let Some(s) = storm {
            assert!(s.size <= s.switches, "storm wave larger than the fabric");
        }
        OpStream {
            rng: SplitMix64::new(seed),
            hold,
            idle_in: (0..terminals as u32).collect(),
            idle_out: (0..terminals as u32).collect(),
            live: VecDeque::new(),
            next_id: 1,
            storm,
            down: Vec::new(),
            since_wave: 0,
            queued: VecDeque::new(),
        }
    }

    /// The next request.
    pub fn next_op(&mut self) -> Op {
        if let Some(op) = self.queued.pop_front() {
            return op;
        }
        if let Some(storm) = self.storm {
            if self.since_wave >= storm.every {
                self.since_wave = 0;
                self.queue_wave(storm);
                if let Some(op) = self.queued.pop_front() {
                    return op;
                }
            }
        }
        if self.live.len() >= self.hold {
            let (id, src, dst) = self.live.pop_front().expect("hold >= 1");
            self.idle_in.push(src);
            self.idle_out.push(dst);
            return Op::Disconnect { id };
        }
        let i = self.rng.below(self.idle_in.len());
        let src = self.idle_in.swap_remove(i);
        let o = self.rng.below(self.idle_out.len());
        let dst = self.idle_out.swap_remove(o);
        let id = self.next_id;
        self.next_id += 1;
        self.live.push_back((id, src, dst));
        self.since_wave += 1;
        Op::Connect { id, src, dst }
    }

    fn queue_wave(&mut self, storm: Storm) {
        if self.down.is_empty() {
            while self.down.len() < storm.size {
                let s = self.rng.below(storm.switches) as u32;
                if !self.down.contains(&s) {
                    self.down.push(s);
                    self.queued.push_back(Op::Fault { switch: s });
                }
            }
        } else {
            for s in self.down.drain(..) {
                self.queued.push_back(Op::Repair { switch: s });
            }
        }
    }

    /// Ends the stream: what is left of a wave being emitted, then the
    /// disconnect of every circuit still up and the repair of every
    /// switch still down, so the server ends as it began.
    pub fn drain(&mut self) -> Vec<Op> {
        let mut ops: Vec<Op> = self.queued.drain(..).collect();
        for (id, src, dst) in self.live.drain(..) {
            self.idle_in.push(src);
            self.idle_out.push(dst);
            ops.push(Op::Disconnect { id });
        }
        for s in self.down.drain(..) {
            ops.push(Op::Repair { switch: s });
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    const STORM: Storm = Storm {
        switches: 500,
        size: 64,
        every: 96,
    };

    fn take(seed: u64, storm: Option<Storm>, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(seed, 16, 8, storm);
        let mut ops: Vec<Op> = (0..n).map(|_| s.next_op()).collect();
        ops.extend(s.drain());
        ops
    }

    #[test]
    fn pure_function_of_the_seed() {
        for storm in [None, Some(STORM)] {
            assert_eq!(take(7, storm, 5000), take(7, storm, 5000));
            assert_ne!(take(7, storm, 5000), take(8, storm, 5000));
        }
    }

    #[test]
    fn never_connects_a_busy_terminal_and_holds_the_level() {
        for storm in [None, Some(STORM)] {
            let mut busy_in = HashSet::new();
            let mut busy_out = HashSet::new();
            let mut up: HashMap<u64, (u32, u32)> = HashMap::new();
            for op in take(3, storm, 20_000) {
                match op {
                    Op::Connect { id, src, dst } => {
                        assert!(src < 16 && dst < 16);
                        assert!(busy_in.insert(src), "input {src} connected while busy");
                        assert!(busy_out.insert(dst), "output {dst} connected while busy");
                        assert!(up.insert(id, (src, dst)).is_none(), "id {id} reused");
                        assert!(up.len() <= 8);
                    }
                    Op::Disconnect { id } => {
                        let (src, dst) = up.remove(&id).expect("disconnect of a circuit not up");
                        busy_in.remove(&src);
                        busy_out.remove(&dst);
                    }
                    Op::Fault { .. } | Op::Repair { .. } => {}
                }
            }
        }
    }

    #[test]
    fn every_connect_is_paired_with_one_disconnect() {
        for storm in [None, Some(STORM)] {
            let mut balance: HashMap<u64, i32> = HashMap::new();
            let mut connects = 0;
            for op in take(11, storm, 20_000) {
                match op {
                    Op::Connect { id, .. } => {
                        connects += 1;
                        *balance.entry(id).or_default() += 1;
                    }
                    Op::Disconnect { id } => *balance.entry(id).or_default() -= 1,
                    _ => {}
                }
            }
            assert!(connects > 5000);
            assert!(balance.values().all(|&b| b == 0));
        }
    }

    #[test]
    fn storms_fail_healthy_switches_and_repair_exactly_those() {
        let mut down = HashSet::new();
        let (mut faults, mut circuit_ops) = (0u64, 0u64);
        for op in take(5, Some(STORM), 50_000) {
            match op {
                Op::Fault { switch } => {
                    faults += 1;
                    assert!((switch as usize) < STORM.switches);
                    assert!(down.insert(switch), "fault on a switch already down");
                }
                Op::Repair { switch } => {
                    assert!(down.remove(&switch), "repair of a healthy switch")
                }
                _ => circuit_ops += 1,
            }
        }
        assert!(down.is_empty(), "drain must repair what is still down");
        // 128 fault/repair ops per 2 × 96 circuits: a quarter of all ops.
        let share = 2.0 * faults as f64 / (2 * faults + circuit_ops) as f64;
        assert!((0.23..0.27).contains(&share), "storm share {share}");
    }
}
