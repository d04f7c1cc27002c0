//! Seeded pointer-chase generator for the `chase-ds4-ring` workload.
//!
//! Shaped like the `li` kernel at `Scale::Small`: a pool of 16-byte
//! `(car, cdr)` cells linked in a shuffled order, copied into place by
//! the program and then traversed repeatedly while summing the `car`s.
//! Unlike `li`, the permutation comes from the benchmark's `--seed`, and
//! the list head is loaded from memory rather than built with `li`, so
//! every seed yields the same instruction count.

use ds_asm::{ProgBuilder, Program};
use ds_isa::{reg, Inst, Opcode};

/// Cells in the pool (`li` at `Scale::Small`).
pub const CELLS: usize = 8000;
/// Full traversals of the list (`li` at `Scale::Small`).
pub const TRAVERSALS: i64 = 12;

/// A generated chase program and the checksum it must store.
#[derive(Debug, Clone)]
pub struct Chase {
    /// The program; it stores its checksum at symbol `result`.
    pub program: Program,
    /// Sum of every `car` over all traversals, as the program computes it.
    pub expected_sum: u64,
}

/// SplitMix64: a small, well-mixed generator whose stream depends only
/// on the seed, so the same seed always gives the same permutation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..=bound` (bias is irrelevant at these sizes).
    fn below_or_eq(&mut self, bound: usize) -> usize {
        (self.next() % (bound as u64 + 1)) as usize
    }
}

/// The visiting order of the cells for `seed` (Fisher–Yates).
pub fn permutation(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64(seed);
    let mut order: Vec<u64> = (0..CELLS as u64).collect();
    for i in (1..CELLS).rev() {
        order.swap(i, rng.below_or_eq(i));
    }
    order
}

fn car(cell: u64) -> u64 {
    cell.wrapping_mul(2_654_435_761) & 0xffff
}

/// Builds the chase program for `seed`.
pub fn generate(seed: u64) -> Chase {
    let order = permutation(seed);
    let mut b = ProgBuilder::new();

    let pool = b.space((CELLS * 16) as u64);
    let pool_base = b.addr_of(pool);
    let mut cell_words = vec![0u64; CELLS * 2];
    for (w, &this) in order.iter().enumerate() {
        let next = order.get(w + 1).map_or(0, |n| pool_base + n * 16);
        cell_words[this as usize * 2] = car(this);
        cell_words[this as usize * 2 + 1] = next;
    }
    let init = b.dwords(&cell_words);
    let head = b.dwords(&[pool_base + order[0] * 16]);
    let result = b.dwords(&[0]);
    let result_addr = b.addr_of(result);
    b.symbol("result", result_addr);

    // The program builds its heap itself, as a lisp interpreter would.
    b.la(reg::S0, init);
    b.la(reg::S1, pool);
    b.li(reg::T0, (CELLS * 2) as i64);
    let copy = b.here();
    b.inst(Inst::load(Opcode::Ld, reg::T1, reg::S0, 0));
    b.inst(Inst::store(Opcode::Sd, reg::T1, reg::S1, 0));
    b.inst(Inst::rri(Opcode::Addi, reg::S0, reg::S0, 8));
    b.inst(Inst::rri(Opcode::Addi, reg::S1, reg::S1, 8));
    b.inst(Inst::rri(Opcode::Addi, reg::T0, reg::T0, -1));
    b.bnez(reg::T0, copy);

    b.li(reg::S6, 0);
    b.li(reg::S4, TRAVERSALS);
    let traverse = b.here();
    b.la(reg::S3, head);
    b.inst(Inst::load(Opcode::Ld, reg::S2, reg::S3, 0));
    let chase = b.here();
    b.inst(Inst::load(Opcode::Ld, reg::T2, reg::S2, 0));
    b.inst(Inst::rrr(Opcode::Add, reg::S6, reg::S6, reg::T2));
    b.inst(Inst::load(Opcode::Ld, reg::S2, reg::S2, 8));
    b.bnez(reg::S2, chase);
    b.inst(Inst::rri(Opcode::Addi, reg::S4, reg::S4, -1));
    b.bnez(reg::S4, traverse);

    b.la(reg::K0, result);
    b.inst(Inst::store(Opcode::Sd, reg::S6, reg::K0, 0));
    b.halt();

    let per_pass: u64 = (0..CELLS as u64).map(car).fold(0, u64::wrapping_add);
    Chase {
        program: b.finish().expect("chase program assembles"),
        expected_sum: per_pass.wrapping_mul(TRAVERSALS as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::reference_run;

    /// Everything that defines a program, as bytes.
    fn program_bytes(p: &Program) -> Vec<u8> {
        let mut out = Vec::new();
        for v in [
            p.text_base,
            p.data_base,
            p.bss_bytes,
            p.heap_bytes,
            p.entry,
            p.stack_top,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for inst in &p.text {
            out.extend_from_slice(&inst.encode().to_le_bytes());
        }
        out.extend_from_slice(&p.data);
        for (name, addr) in &p.symbols {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&addr.to_le_bytes());
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_program() {
        let a = generate(7);
        let b = generate(7);
        assert_eq!(program_bytes(&a.program), program_bytes(&b.program));
        assert_eq!(a.expected_sum, b.expected_sum);
    }

    #[test]
    fn different_seeds_permute_the_same_cells_in_the_same_instruction_count() {
        let (p1, p2) = (permutation(1), permutation(2));
        assert_ne!(p1, p2, "seeds must give different permutations");
        let (mut s1, mut s2) = (p1.clone(), p2.clone());
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, (0..CELLS as u64).collect::<Vec<_>>());
        assert_eq!(s1, s2, "every seed visits every cell once");

        let (a, b) = (generate(1), generate(2));
        assert_ne!(program_bytes(&a.program), program_bytes(&b.program));
        assert_eq!(a.program.text.len(), b.program.text.len());
        let (ra, rb) = (reference_run(&a.program), reference_run(&b.program));
        assert_eq!(
            ra.icount, rb.icount,
            "instruction count must not depend on the seed"
        );
        assert_eq!(ra.checksum, a.expected_sum);
        assert_eq!(rb.checksum, b.expected_sum);
    }
}
