//! Bracket (parentheses) matching — Lemma 5.1(3) of the paper.
//!
//! Given a sequence of opening and closing brackets (not necessarily
//! balanced), find for every bracket its partner under the usual stack
//! discipline: a closing bracket matches the nearest preceding unmatched
//! opening bracket.
//!
//! Two implementations:
//!
//! * [`match_brackets_seq`] — the linear-time stack reference.
//! * [`match_brackets_pram`] — the tournament (segment-tree) algorithm. The
//!   bottom-up counting phase is EREW-clean with `O(n)` work and `O(log n)`
//!   steps. The pair-extraction phase walks the tournament tree once per
//!   closing bracket: `O(log n)` steps but `O(n log n)` work and concurrent
//!   reads of the tree nodes (CREW). It stands in for the optimal EREW
//!   algorithm of Gibbons–Rytter cited by the paper. The simulator counts
//!   every one of those reads: a 200-vertex mixed cotree (the `quickstart`
//!   example) makes 1,092 EREW violations, all of them concurrent reads in
//!   the pipeline's bracket-matching step. The `experiments` binary's E4
//!   table prints the total and how many fall outside that step (none), so
//!   the deviation stays visible.

use crate::ranking::NONE_WORD;
use pram::Pram;

/// Kind of a bracket in a matching problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BracketKind {
    /// An opening bracket.
    Open,
    /// A closing bracket.
    Close,
}

impl BracketKind {
    /// Encoding used inside PRAM memory: open = 0, close = 1.
    pub fn to_word(self) -> i64 {
        match self {
            BracketKind::Open => 0,
            BracketKind::Close => 1,
        }
    }

    /// Decodes the PRAM encoding.
    pub fn from_word(w: i64) -> Self {
        if w == 0 {
            BracketKind::Open
        } else {
            BracketKind::Close
        }
    }
}

/// Sequential stack matching. Returns, for every position, the index of its
/// partner, or `None` when the bracket stays unmatched.
pub fn match_brackets_seq(kinds: &[BracketKind]) -> Vec<Option<usize>> {
    let mut partner = vec![None; kinds.len()];
    let mut stack: Vec<usize> = Vec::new();
    for (i, &k) in kinds.iter().enumerate() {
        match k {
            BracketKind::Open => stack.push(i),
            BracketKind::Close => {
                if let Some(open) = stack.pop() {
                    partner[open] = Some(i);
                    partner[i] = Some(open);
                }
            }
        }
    }
    partner
}

/// Tournament-tree bracket matching on the PRAM simulator. Loads `kinds`
/// into shared memory (one word per position, see
/// [`BracketKind::to_word`]) and returns, like [`match_brackets_seq`], every
/// position's partner, or `None` when the bracket stays unmatched.
pub fn match_brackets_pram(pram: &mut Pram, kinds: &[BracketKind]) -> Vec<Option<usize>> {
    let n = kinds.len();
    let words: Vec<i64> = kinds.iter().map(|k| k.to_word()).collect();
    let kinds = pram.alloc_from(&words);
    let partner = pram.alloc(n);
    if n == 0 {
        return Vec::new();
    }
    pram.parallel_for(n, |ctx, i| {
        ctx.write(partner, i, NONE_WORD);
    });

    // Complete binary tournament tree over `size` leaves (power of two).
    let size = n.next_power_of_two();
    // Node layout: 1-based heap order, nodes 1..2*size. uo = unmatched opens,
    // uc = unmatched closes, k = pairs matched at this node.
    let uo = pram.alloc(2 * size);
    let uc = pram.alloc(2 * size);
    let kk = pram.alloc(2 * size);

    // Leaves.
    pram.parallel_for(size, |ctx, i| {
        let node = size + i;
        if i < n {
            let kind = ctx.read(kinds, i);
            ctx.write(uo, node, if kind == 0 { 1 } else { 0 });
            ctx.write(uc, node, if kind == 1 { 1 } else { 0 });
        } else {
            ctx.write(uo, node, 0);
            ctx.write(uc, node, 0);
        }
    });

    // Bottom-up counting: O(log n) rounds, total work O(n), EREW.
    let mut level_size = size / 2;
    let mut level_start = size / 2;
    while level_size >= 1 {
        pram.parallel_for(level_size, |ctx, i| {
            let node = level_start + i;
            let l = 2 * node;
            let r = 2 * node + 1;
            let lo = ctx.read(uo, l);
            let lc = ctx.read(uc, l);
            let ro = ctx.read(uo, r);
            let rc = ctx.read(uc, r);
            let k = lo.min(rc);
            ctx.write(kk, node, k);
            ctx.write(uo, node, lo - k + ro);
            ctx.write(uc, node, lc + rc - k);
        });
        level_size /= 2;
        level_start /= 2;
    }

    // Extraction: every closing bracket walks up until the ancestor at which
    // it is matched, then walks down the opposite subtree to locate its
    // opening partner. Concurrent reads of the tree counters (CREW); charged
    // honestly by the simulator.
    pram.parallel_for(n, |ctx, i| {
        if ctx.read(kinds, i) != 1 {
            return;
        }
        // Walk up, maintaining the rank of this close (1-based, in position
        // order) among the unmatched closes of the current node's segment.
        let mut node = size + i;
        let mut rank: i64 = 1;
        let mut matched_at = 0usize;
        let mut rank_at_match: i64 = 0;
        while node > 1 {
            let parent = node / 2;
            let is_right = node % 2 == 1;
            if is_right {
                let k = ctx.read(kk, parent);
                if rank <= k {
                    matched_at = parent;
                    rank_at_match = rank;
                    break;
                }
                let left_uc = ctx.read(uc, 2 * parent);
                rank = rank - k + left_uc;
            }
            node = parent;
        }
        if matched_at == 0 {
            return; // globally unmatched
        }
        // Walk down the left child of `matched_at` looking for the open with
        // rank-from-the-right `rank_at_match` among its unmatched opens.
        let mut node = 2 * matched_at;
        let mut rr = rank_at_match;
        while node < size {
            let l = 2 * node;
            let r = 2 * node + 1;
            let ro = ctx.read(uo, r);
            if rr <= ro {
                node = r;
            } else {
                let k = ctx.read(kk, node);
                rr = rr - ro + k;
                node = l;
            }
        }
        let open_pos = node - size;
        ctx.write(partner, i, open_pos as i64);
        ctx.write(partner, open_pos, i as i64);
    });
    pram.snapshot(partner)
        .into_iter()
        .map(|w| (w != NONE_WORD).then_some(w as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pram::{Mode, Pram};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn parse(s: &str) -> Vec<BracketKind> {
        s.chars()
            .map(|c| match c {
                '(' => BracketKind::Open,
                ')' => BracketKind::Close,
                other => panic!("unexpected char {other}"),
            })
            .collect()
    }

    #[test]
    fn sequential_simple() {
        let p = match_brackets_seq(&parse("(())"));
        assert_eq!(p, vec![Some(3), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn sequential_unbalanced() {
        let p = match_brackets_seq(&parse(")()("));
        assert_eq!(p, vec![None, Some(2), Some(1), None]);
    }

    #[test]
    fn sequential_empty() {
        assert!(match_brackets_seq(&[]).is_empty());
    }

    fn check_pram(s: &str) {
        let kinds = parse(s);
        let mut pram = Pram::new(Mode::Crew, pram::optimal_processors(kinds.len().max(1)));
        let got = match_brackets_pram(&mut pram, &kinds);
        assert_eq!(got, match_brackets_seq(&kinds), "input {s}");
        assert!(
            pram.metrics().is_clean(),
            "CREW discipline violated for {s}"
        );
    }

    #[test]
    fn pram_matches_sequential_on_simple_cases() {
        for s in [
            "", "()", "(())", "()()", "((()))", ")(", "(((", ")))", "(()(()))", ")()(()",
        ] {
            check_pram(s);
        }
    }

    #[test]
    fn pram_matches_sequential_on_random_inputs() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for len in [1usize, 2, 3, 7, 16, 33, 100, 257] {
            for _ in 0..5 {
                let s: String = (0..len)
                    .map(|_| if rng.gen_bool(0.5) { '(' } else { ')' })
                    .collect();
                check_pram(&s);
            }
        }
    }

    #[test]
    fn pram_matches_sequential_on_deep_nesting() {
        let s = "(".repeat(200) + &")".repeat(200);
        check_pram(&s);
    }

    #[test]
    fn counting_phase_is_erew_clean() {
        // Run only the counting phase in strict EREW mode by checking that
        // violations, if any, stem from the extraction phase (which reads
        // tree counters concurrently). A sequence with no closing bracket
        // has an empty extraction phase and must be fully EREW-clean.
        let kinds = parse("((((((((");
        let mut pram = Pram::strict(Mode::Erew, 4);
        let got = match_brackets_pram(&mut pram, &kinds);
        assert!(got.iter().all(Option::is_none));
        assert!(pram.metrics().is_clean());
    }

    #[test]
    fn work_and_steps_scaling() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut stats = Vec::new();
        for exp in [10usize, 12] {
            let n = 1 << exp;
            let kinds: Vec<BracketKind> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        BracketKind::Open
                    } else {
                        BracketKind::Close
                    }
                })
                .collect();
            let mut pram = Pram::new(Mode::Crew, pram::optimal_processors(n));
            match_brackets_pram(&mut pram, &kinds);
            stats.push(pram.metrics().steps_per_log(n));
        }
        // Steps stay O(log n): the normalised value must not blow up.
        assert!(stats[1] / stats[0] < 3.0, "{stats:?}");
    }
}
