//! A fixed calibration unit, run right after every timed call, so each
//! call's time can be read against how fast the host ran at that moment.
//!
//! The unit interprets a small register machine over a 64 KiB data image
//! (branchy dispatch, dependent loads and stores, like the simulator), then
//! builds and drops a few hundred small nested vectors (allocator churn,
//! like trace recording, envelope parsing and the figures). Its code lives
//! here, not in the program, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Register-machine steps in one unit.
const STEPS: usize = 1_000_000;
/// Allocation rounds in one unit.
const ROUNDS: usize = 900;

/// The unit's time on a quiet 2-vCPU Xeon VM, the host the bounds in
/// `BENCHMARK.json` were set on (its fastest units took 2.8–2.9 ms).
/// Calibrated times are quoted at this speed.
pub const REFERENCE_S: f64 = 0.0029;

/// The unit's data, kept across units so every unit does the same work.
pub struct Calibration {
    memory: Vec<i64>,
    /// Every unit's time, in run order.
    pub samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { memory: (0..8192).collect(), samples: Vec::new() }
    }
}

impl Calibration {
    /// Runs one unit and returns its time in seconds.
    pub fn unit(&mut self) -> f64 {
        let t = Instant::now();
        black_box(interpret(&mut self.memory, black_box(STEPS)));
        black_box(churn(black_box(ROUNDS)));
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        secs
    }
}

/// Interprets a fixed eight-instruction loop for `steps` steps.
fn interpret(memory: &mut [i64], steps: usize) -> i64 {
    const PROGRAM: [(u8, usize, usize, i64); 8] = [
        (0, 1, 1, 7),
        (1, 2, 1, 0),
        (2, 3, 2, 3),
        (3, 2, 3, 0),
        (0, 4, 4, 1),
        (4, 5, 4, 0),
        (1, 6, 5, 0),
        (5, 0, 6, 0),
    ];
    let mut regs = [0i64; 8];
    let mask = memory.len() - 1;
    let mut pc = 0;
    for _ in 0..steps {
        let (op, rd, rs, imm) = PROGRAM[pc];
        match op {
            0 => regs[rd] = regs[rs].wrapping_add(imm),
            1 => regs[rd] = memory[(regs[rs] as usize).wrapping_mul(2_654_435_761) & mask],
            2 => regs[rd] = regs[rs].wrapping_mul(regs[rd] | 1) >> 3,
            3 => memory[regs[rd] as usize & mask] = regs[rs],
            4 => {
                regs[rd] =
                    if regs[rs] & 1 == 0 { regs[rs] / 2 } else { regs[rs].wrapping_mul(3) + 1 }
            }
            _ => regs[rd] ^= regs[rs],
        }
        pc = (pc + 1) & 7;
    }
    regs.iter().sum()
}

/// Builds and drops `rounds` sets of 64 small vectors of varying length.
fn churn(rounds: usize) -> usize {
    let mut total = 0;
    for r in 0..rounds {
        let v: Vec<Vec<u64>> = (0..64).map(|i| vec![i as u64; 8 + (i + r) % 24]).collect();
        total += black_box(&v).iter().map(Vec::len).sum::<usize>();
    }
    total
}
