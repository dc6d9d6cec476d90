//! List ranking — Lemma 5.1(1) of the paper.
//!
//! Given a linked list encoded as a successor array, compute for every
//! element its rank, defined (as in the paper) as the distance to the tail of
//! the list (the tail has rank 0).
//!
//! Two PRAM implementations are provided:
//!
//! * [`list_rank_wyllie`] — classical pointer jumping: `O(log n)` steps but
//!   `O(n log n)` work. EREW-clean (successor pointers are injective, and each
//!   round reads through private mirror copies).
//! * [`list_rank_blocked`] — a Helman–JáJá-style two-level algorithm: stride-
//!   spaced splitters walk their sublists sequentially, the reduced splitter
//!   list is ranked by pointer jumping, and a second walk distributes the
//!   final ranks. `O(n)` work; the step count is `O(stride + log n)` where
//!   `stride` defaults to `log2 n`, matching the work-optimal bound whenever
//!   sublists stay near the stride length (which holds for the Euler-tour
//!   lists produced in this workspace). This is the documented stand-in for
//!   the deterministic optimal algorithms of Cole–Vishkin/Anderson–Miller
//!   cited by the paper.
//!
//! Elements that are not part of any list (successor pointing to themselves
//! is not allowed; use `NONE_WORD`) simply keep whatever rank falls out; the
//! callers in this workspace always rank every live element.

use crate::scan::effective_block;
use pram::{ArrayHandle, Pram};

/// Sentinel for "no successor" in successor arrays stored in PRAM memory.
pub const NONE_WORD: i64 = -1;

/// Sequential reference: rank (distance to tail) of every element.
pub fn list_rank_seq(succ: &[i64]) -> Vec<i64> {
    let n = succ.len();
    let mut rank = vec![0i64; n];
    // Find heads (elements that are nobody's successor), then walk each list.
    let mut has_pred = vec![false; n];
    for &s in succ {
        if s >= 0 {
            has_pred[s as usize] = true;
        }
    }
    for (head, &pred) in has_pred.iter().enumerate() {
        if pred {
            continue;
        }
        // Collect the list, then assign ranks from the tail backwards.
        let mut order = Vec::new();
        let mut cur = head as i64;
        while cur >= 0 {
            order.push(cur as usize);
            cur = succ[cur as usize];
        }
        for (i, &v) in order.iter().enumerate() {
            rank[v] = (order.len() - 1 - i) as i64;
        }
    }
    rank
}

/// Pointer-jumping (Wyllie) list ranking on the PRAM simulator.
pub fn list_rank_wyllie(pram: &mut Pram, succ: ArrayHandle) -> ArrayHandle {
    let n = succ.len();
    let rank = pram.alloc(n);
    if n == 0 {
        return rank;
    }
    // Working copies so the input successor array is left untouched.
    let nxt = pram.alloc(n);
    pram.parallel_for(n, |ctx, i| {
        let s = ctx.read(succ, i);
        ctx.write(nxt, i, s);
        ctx.write(rank, i, if s == NONE_WORD { 0 } else { 1 });
    });

    let rounds = (usize::BITS - n.leading_zeros()) as usize;
    for _ in 0..rounds {
        // Mirror copies so that reading a successor's fields never collides
        // with the successor reading its own fields (EREW discipline).
        let nxt_mirror = pram.alloc(n);
        let rank_mirror = pram.alloc(n);
        pram.parallel_for(n, |ctx, i| {
            let s = ctx.read(nxt, i);
            let r = ctx.read(rank, i);
            ctx.write(nxt_mirror, i, s);
            ctx.write(rank_mirror, i, r);
        });
        pram.parallel_for(n, |ctx, i| {
            let s = ctx.read(nxt, i);
            if s != NONE_WORD {
                let r = ctx.read(rank, i);
                let rs = ctx.read(rank_mirror, s as usize);
                let ss = ctx.read(nxt_mirror, s as usize);
                ctx.write(rank, i, r + rs);
                ctx.write(nxt, i, ss);
            }
        });
    }
    rank
}

/// Blocked two-level list ranking on the PRAM simulator (see module docs).
///
/// `stride = 0` selects the default `log2 n`.
pub fn list_rank_blocked(pram: &mut Pram, succ: ArrayHandle, stride: usize) -> ArrayHandle {
    let n = succ.len();
    let rank = pram.alloc(n);
    if n == 0 {
        return rank;
    }
    let stride = effective_block(n, stride);

    // Heads: elements that are nobody's successor.
    let has_pred = pram.alloc(n);
    pram.parallel_for(n, |ctx, i| {
        let s = ctx.read(succ, i);
        if s != NONE_WORD {
            ctx.write(has_pred, s as usize, 1);
        }
    });

    // Splitters: every `stride`-th array position plus every head.
    let is_splitter = pram.alloc(n);
    pram.parallel_for(n, |ctx, i| {
        let head = ctx.read(has_pred, i) == 0;
        let marked = head || i % stride == 0;
        ctx.write(is_splitter, i, if marked { 1 } else { 0 });
    });

    // Dense splitter ids via a prefix sum.
    let splitter_prefix =
        crate::scan::prefix_sums_pram(pram, is_splitter, crate::scan::ScanOp::Sum, 0);
    let num_splitters = pram.peek(splitter_prefix, n - 1) as usize;
    // splitter_of[dense id] = element index
    let splitter_of = pram.alloc(num_splitters.max(1));
    pram.parallel_for(n, |ctx, i| {
        if ctx.read(is_splitter, i) == 1 {
            let id = ctx.read(splitter_prefix, i) - 1;
            ctx.write(splitter_of, id as usize, i as i64);
        }
    });

    // Walk phase: each splitter walks its sublist until the next splitter,
    // recording per-element local offsets and its sublist metadata.
    let local_offset = pram.alloc(n); // offset of element within its sublist
    let sublist_len = pram.alloc(num_splitters.max(1));
    let next_splitter = pram.alloc(num_splitters.max(1)); // dense id or NONE
    pram.parallel_for(num_splitters, |ctx, sid| {
        let start = ctx.read(splitter_of, sid) as usize;
        let mut cur = start;
        let mut offset: i64 = 0;
        loop {
            ctx.write(local_offset, cur, offset);
            let nxt = ctx.read(succ, cur);
            if nxt == NONE_WORD {
                ctx.write(sublist_len, sid, offset + 1);
                ctx.write(next_splitter, sid, NONE_WORD);
                return;
            }
            let nxt = nxt as usize;
            if ctx.read(is_splitter, nxt) == 1 {
                ctx.write(sublist_len, sid, offset + 1);
                let nxt_id = ctx.read(splitter_prefix, nxt) - 1;
                ctx.write(next_splitter, sid, nxt_id);
                return;
            }
            cur = nxt;
            offset += 1;
        }
    });

    // Rank the reduced splitter list by weighted pointer jumping:
    // after convergence, `after[s]` holds the number of elements in sublists
    // strictly after `s`.
    let after = pram.alloc(num_splitters.max(1));
    let red_next = pram.alloc(num_splitters.max(1));
    pram.parallel_for(num_splitters, |ctx, sid| {
        let nxt = ctx.read(next_splitter, sid);
        ctx.write(red_next, sid, nxt);
        let w = if nxt == NONE_WORD {
            0
        } else {
            ctx.read(sublist_len, nxt as usize)
        };
        ctx.write(after, sid, w);
    });
    let rounds = (usize::BITS - num_splitters.max(1).leading_zeros()) as usize;
    for _ in 0..rounds {
        let next_mirror = pram.alloc(num_splitters.max(1));
        let after_mirror = pram.alloc(num_splitters.max(1));
        pram.parallel_for(num_splitters, |ctx, sid| {
            let s = ctx.read(red_next, sid);
            let a = ctx.read(after, sid);
            ctx.write(next_mirror, sid, s);
            ctx.write(after_mirror, sid, a);
        });
        pram.parallel_for(num_splitters, |ctx, sid| {
            let s = ctx.read(red_next, sid);
            if s != NONE_WORD {
                let a = ctx.read(after, sid);
                let aj = ctx.read(after_mirror, s as usize);
                let sj = ctx.read(next_mirror, s as usize);
                ctx.write(after, sid, a + aj);
                ctx.write(red_next, sid, sj);
            }
        });
    }

    // Distribution walk: every splitter re-walks its sublist and writes the
    // final ranks: rank(x) = after(s) + (len(s) - 1 - local_offset(x)).
    pram.parallel_for(num_splitters, |ctx, sid| {
        let start = ctx.read(splitter_of, sid) as usize;
        let len = ctx.read(sublist_len, sid);
        let tail_after = ctx.read(after, sid);
        let mut cur = start;
        let mut offset: i64 = 0;
        loop {
            ctx.write(rank, cur, tail_after + (len - 1 - offset));
            let nxt = ctx.read(succ, cur);
            if nxt == NONE_WORD {
                return;
            }
            let nxt = nxt as usize;
            if ctx.read(is_splitter, nxt) == 1 {
                return;
            }
            cur = nxt;
            offset += 1;
        }
    });
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::{Mode, Pram};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Builds the successor array of a single list visiting `order` in order,
    /// where `order` is a permutation of `0..n`.
    fn succ_from_order(order: &[usize]) -> Vec<i64> {
        let n = order.len();
        let mut succ = vec![NONE_WORD; n];
        for w in order.windows(2) {
            succ[w[0]] = w[1] as i64;
        }
        succ
    }

    #[test]
    fn sequential_ranking() {
        // list: 2 -> 0 -> 1 (tail)
        let succ = vec![1, NONE_WORD, 0];
        assert_eq!(list_rank_seq(&succ), vec![1, 0, 2]);
    }

    #[test]
    fn sequential_ranking_multiple_lists() {
        // lists: 0 -> 1, 2 -> 3 -> 4
        let succ = vec![1, NONE_WORD, 3, 4, NONE_WORD];
        assert_eq!(list_rank_seq(&succ), vec![1, 0, 2, 1, 0]);
    }

    #[test]
    fn wyllie_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for n in [1usize, 2, 3, 10, 64, 129] {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let succ = succ_from_order(&order);
            let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(n));
            let h = pram.alloc_from(&succ);
            let r = list_rank_wyllie(&mut pram, h);
            assert_eq!(pram.snapshot(r), list_rank_seq(&succ), "n={n}");
            assert!(pram.metrics().is_clean());
        }
    }

    #[test]
    fn blocked_matches_sequential() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        for n in [1usize, 2, 5, 33, 128, 500] {
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let succ = succ_from_order(&order);
            let mut pram = Pram::strict(Mode::Erew, pram::optimal_processors(n));
            let h = pram.alloc_from(&succ);
            let r = list_rank_blocked(&mut pram, h, 0);
            assert_eq!(pram.snapshot(r), list_rank_seq(&succ), "n={n}");
            assert!(pram.metrics().is_clean());
        }
    }

    #[test]
    fn blocked_handles_identity_order() {
        let n = 200;
        let order: Vec<usize> = (0..n).collect();
        let succ = succ_from_order(&order);
        let mut pram = Pram::strict(Mode::Erew, 8);
        let h = pram.alloc_from(&succ);
        let r = list_rank_blocked(&mut pram, h, 16);
        assert_eq!(pram.snapshot(r), list_rank_seq(&succ));
    }

    #[test]
    fn blocked_is_work_optimal() {
        let n = 1 << 12;
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let succ = succ_from_order(&order);

        let mut pram_blocked = Pram::new(Mode::Erew, pram::optimal_processors(n));
        let h = pram_blocked.alloc_from(&succ);
        list_rank_blocked(&mut pram_blocked, h, 0);

        let mut pram_wyllie = Pram::new(Mode::Erew, pram::optimal_processors(n));
        let h = pram_wyllie.alloc_from(&succ);
        list_rank_wyllie(&mut pram_wyllie, h);

        // Pointer jumping performs Theta(n log n) work; the blocked algorithm
        // must be well below it.
        assert!(
            pram_blocked.metrics().work * 2 < pram_wyllie.metrics().work,
            "blocked={} wyllie={}",
            pram_blocked.metrics().work,
            pram_wyllie.metrics().work
        );
    }

    #[test]
    fn wyllie_handles_multiple_lists() {
        let succ = vec![1, NONE_WORD, 3, 4, NONE_WORD, NONE_WORD];
        let mut pram = Pram::strict(Mode::Erew, 4);
        let h = pram.alloc_from(&succ);
        let r = list_rank_wyllie(&mut pram, h);
        assert_eq!(pram.snapshot(r), list_rank_seq(&succ));
    }

    #[test]
    fn blocked_handles_multiple_lists() {
        let succ = vec![1, NONE_WORD, 3, 4, NONE_WORD, NONE_WORD, 0];
        let mut pram = Pram::strict(Mode::Erew, 4);
        let h = pram.alloc_from(&succ);
        let r = list_rank_blocked(&mut pram, h, 2);
        assert_eq!(pram.snapshot(r), list_rank_seq(&succ));
    }

    #[test]
    fn empty_list() {
        let mut pram = Pram::strict(Mode::Erew, 4);
        let h = pram.alloc(0);
        let r = list_rank_wyllie(&mut pram, h);
        assert!(pram.snapshot(r).is_empty());
        let r = list_rank_blocked(&mut pram, h, 0);
        assert!(pram.snapshot(r).is_empty());
    }
}
