//! Thread symmetry for both engines.
//!
//! Threads with equal programs and equal initial stacks — the copies of
//! a thread template, see [`Cpds::thread_classes`] — are
//! interchangeable: permuting their stacks maps runs to runs and
//! contexts to contexts, so every layer `Rk` (and `Sk`, whose stack
//! languages permute the same way) is closed under those permutations
//! (symmetry reduction in the sense of Emerson & Sistla). Each engine
//! therefore stores one *canonical representative* per orbit, the
//! member whose stacks are sorted by content within each class, and
//! weighs it by the size of its orbit, so that every count it reports
//! stays concrete.
//!
//! Here a state's stacks are the `[StackId; n]` (explicit) or
//! `[DfaId; n]` (symbolic) part of its interned key, indexed by
//! thread, and [`ContentOrder`] orders those ids by what they stand
//! for.
//!
//! Visible states permute the same way, so the layer record keeps one
//! *canonical visible key* per visible orbit, its tops sorted by top
//! code within each class ([`cuba_pds::canonicalize_visible_key`]),
//! weighed by its orbit size too. [`Symmetry::for_each_arrangement`]
//! expands such a key back into its orbit where a reader asks for
//! concrete visible states, and fixes the order it lists them in.

use std::cmp::Ordering;

use cuba_pds::{canonicalize_visible_key, Cpds, GlobalState, StackId, StackTable};

/// A table whose ids order by the content they stand for, whatever
/// order it interned them in. A canonical form built on this order
/// survives a restore that re-interns the content.
pub(crate) trait ContentOrder {
    fn cmp_ids(&self, a: u32, b: u32) -> Ordering;
}

/// Stacks order by depth, then by symbols from the top down.
impl ContentOrder for StackTable {
    fn cmp_ids(&self, a: u32, b: u32) -> Ordering {
        self.cmp_content(StackId(a), StackId(b))
    }
}

/// The classes of interchangeable threads of one system.
#[derive(Debug, Clone)]
pub(crate) struct Symmetry {
    /// Classes of two or more threads, members ascending.
    classes: Vec<Vec<usize>>,
    /// Per thread, the index of its class, if it has one.
    class_of: Vec<Option<usize>>,
    /// Per thread, its position within its class (0 without a class).
    rank: Vec<usize>,
}

impl Symmetry {
    pub(crate) fn new(cpds: &Cpds) -> Self {
        Symmetry::of_classes(cpds.thread_classes(), cpds.num_threads())
    }

    /// The symmetry of `num_threads` threads under which each class of
    /// `classes` is interchangeable.
    pub(crate) fn of_classes(classes: Vec<Vec<usize>>, num_threads: usize) -> Self {
        let mut class_of = vec![None; num_threads];
        let mut rank = vec![0; num_threads];
        for (c, class) in classes.iter().enumerate() {
            for (r, &t) in class.iter().enumerate() {
                class_of[t] = Some(c);
                rank[t] = r;
            }
        }
        Symmetry {
            classes,
            class_of,
            rank,
        }
    }

    /// The class of `thread`, if it has one: the threads whose stacks a
    /// rewrite of its stack may reorder.
    pub(crate) fn class(&self, thread: usize) -> Option<&[usize]> {
        self.class_of[thread].map(|c| self.classes[c].as_slice())
    }

    /// The first thread before `thread` in its class that holds the
    /// same stack word in `stacks` (a stack or stack-language id per
    /// thread), if any: `thread`'s contexts then mirror that thread's.
    pub(crate) fn earlier_twin(&self, stacks: &[u32], thread: usize) -> Option<usize> {
        let class = self.class(thread)?;
        class[..self.rank[thread]]
            .iter()
            .copied()
            .find(|&t| stacks[t] == stacks[thread])
    }

    /// Sorts `stacks` by content within each class.
    pub(crate) fn canonicalize(&self, table: &impl ContentOrder, stacks: &mut [u32]) {
        for class in &self.classes {
            let mut sorted: Vec<u32> = class.iter().map(|&t| stacks[t]).collect();
            sorted.sort_by(|&a, &b| table.cmp_ids(a, b));
            for (&t, id) in class.iter().zip(sorted) {
                stacks[t] = id;
            }
        }
    }

    /// Sorts the tops of the visible key `key` by top code within each
    /// class: the canonical key of its visible orbit.
    pub(crate) fn canonicalize_visible(&self, key: &mut [u32]) {
        canonicalize_visible_key(&self.classes, key);
    }

    /// Whether `stacks` are sorted by content within each class.
    pub(crate) fn is_canonical(&self, table: &impl ContentOrder, stacks: &[u32]) -> bool {
        self.classes.iter().all(|class| {
            class
                .windows(2)
                .all(|pair| !greater(table, stacks[pair[0]], stacks[pair[1]]))
        })
    }

    /// Restores the canonical order of `stacks` after the stack of
    /// `thread` was rewritten: one insertion pass over its class.
    /// Returns the thread that now holds the rewritten stack (the
    /// running thread of the context). Where several threads hold that
    /// stack, which of them runs is immaterial: they are
    /// interchangeable in this state.
    pub(crate) fn resort(
        &self,
        table: &impl ContentOrder,
        stacks: &mut [u32],
        thread: usize,
    ) -> usize {
        let Some(class) = self.class(thread) else {
            return thread;
        };
        let moved = stacks[thread];
        let mut r = self.rank[thread];
        while r > 0 && greater(table, stacks[class[r - 1]], moved) {
            stacks[class[r]] = stacks[class[r - 1]];
            r -= 1;
        }
        while r + 1 < class.len() && greater(table, moved, stacks[class[r + 1]]) {
            stacks[class[r]] = stacks[class[r + 1]];
            r += 1;
        }
        stacks[class[r]] = moved;
        class[r]
    }

    /// The size of the orbit of a state with canonical `stacks` (stack
    /// ids, stack-language ids, or the top codes of a canonical visible
    /// key): per class of `m` threads, `m! / ∏ multiplicity!` over its
    /// distinct slots; the product over classes, saturating.
    pub(crate) fn weight(&self, stacks: &[u32]) -> usize {
        let mut weight: u128 = 1;
        for class in &self.classes {
            // Equal stacks are adjacent in a canonical state; after
            // `r + 1` threads whose current run of equal stacks has
            // length `run`, `weight` carries the multinomial so far,
            // always an integer.
            let mut run = 0u128;
            for (r, &t) in class.iter().enumerate() {
                run = if r > 0 && stacks[class[r - 1]] == stacks[t] {
                    run + 1
                } else {
                    1
                };
                weight = match weight.checked_mul(r as u128 + 1) {
                    Some(w) => w / run,
                    None => return usize::MAX,
                };
            }
        }
        usize::try_from(weight).unwrap_or(usize::MAX)
    }

    /// Calls `f` on each distinct key that permuting the slots of `key`
    /// within classes makes of it, `key` first, and stops at the first
    /// error `f` returns. `key` is `(q, [slot; n])`, thread `t`'s slot in
    /// `key[t + 1]`; the walk permutes the slots in place and restores
    /// them before it returns. Its order fixes the order in which a
    /// stored visible key expands into concrete visible states, and in
    /// which a witness search meets the members of a stored state's
    /// orbit: the first class varies slowest, and each position of a
    /// class in turn takes each of the class's remaining slots, in their
    /// original order, skipping one equal to an earlier one.
    pub(crate) fn for_each_arrangement<E, F>(&self, key: &mut [u32], mut f: F) -> Result<(), E>
    where
        F: FnMut(&[u32]) -> Result<(), E>,
    {
        self.arrange(0, 0, key, &mut f)
    }

    /// Arranges position `p` of class `c` on, whose positions `p..`
    /// hold the class's remaining slots in their original order.
    fn arrange<E, F>(&self, c: usize, p: usize, key: &mut [u32], f: &mut F) -> Result<(), E>
    where
        F: FnMut(&[u32]) -> Result<(), E>,
    {
        let Some(class) = self.classes.get(c) else {
            return f(key);
        };
        if p + 1 == class.len() {
            return self.arrange(c + 1, 0, key, f);
        }
        let at = |r: usize| class[r] + 1;
        for i in p..class.len() {
            let moved = key[at(i)];
            if (p..i).any(|r| key[at(r)] == moved) {
                continue;
            }
            // Move position `i` to `p`, the ones between up by one.
            for r in (p..i).rev() {
                key[at(r + 1)] = key[at(r)];
            }
            key[at(p)] = moved;
            let walked = self.arrange(c, p + 1, key, f);
            for r in p..i {
                key[at(r)] = key[at(r + 1)];
            }
            key[at(i)] = moved;
            walked?;
        }
        Ok(())
    }

    /// Whether some permutation `σ` of the threads within classes has
    /// `fits(i, σ(i))` for every thread `i`: a perfect matching per
    /// class (Kuhn's augmenting paths), each pair asked at most once.
    /// With `fits(i, j)` "slot `i` of one state lies inside slot `j` of
    /// another", this asks whether the first lies inside some member of
    /// the second's orbit, without enumerating the orbit.
    pub(crate) fn some_permutation(&self, fits: impl Fn(usize, usize) -> bool) -> bool {
        let fixed = (0..self.class_of.len()).all(|t| self.class_of[t].is_some() || fits(t, t));
        fixed
            && self.classes.iter().all(|class| {
                let m = class.len();
                let mut known: Vec<Option<bool>> = vec![None; m * m];
                let mut fits_at = |a: usize, b: usize| {
                    *known[a * m + b].get_or_insert_with(|| fits(class[a], class[b]))
                };
                let mut owner = vec![None; m];
                (0..m).all(|a| augment(a, &mut vec![false; m], &mut owner, &mut fits_at))
            })
    }

    /// A permutation `σ` of the threads, within classes, that maps
    /// `from` onto `to`: `to.stacks[σ[i]] == from.stacks[i]` for every
    /// thread `i`. `None` when the two states lie in different orbits.
    pub(crate) fn matching(&self, from: &GlobalState, to: &GlobalState) -> Option<Vec<usize>> {
        if from.q != to.q {
            return None;
        }
        let mut sigma: Vec<usize> = (0..from.stacks.len()).collect();
        for (i, stack) in from.stacks.iter().enumerate() {
            if self.class_of[i].is_none() && to.stacks[i] != *stack {
                return None;
            }
        }
        for class in &self.classes {
            let mut used = vec![false; class.len()];
            for &i in class {
                let r = (0..class.len())
                    .find(|&r| !used[r] && to.stacks[class[r]] == from.stacks[i])?;
                used[r] = true;
                sigma[i] = class[r];
            }
        }
        Some(sigma)
    }
}

/// `state` with the stack of each thread `i` moved to thread `σ[i]`.
pub(crate) fn permute(sigma: &[usize], state: &GlobalState) -> GlobalState {
    let mut stacks = state.stacks.clone();
    for (i, stack) in state.stacks.iter().enumerate() {
        stacks[sigma[i]] = stack.clone();
    }
    GlobalState::new(state.q, stacks)
}

fn greater(table: &impl ContentOrder, a: u32, b: u32) -> bool {
    table.cmp_ids(a, b) == Ordering::Greater
}

/// Kuhn's step: finds position `a` of a class a slot `b` it fits, one
/// not visited in this search that is free or whose owner can move to
/// another slot. `owner[b]` is the position matched to slot `b`.
fn augment(
    a: usize,
    seen: &mut [bool],
    owner: &mut [Option<usize>],
    fits: &mut dyn FnMut(usize, usize) -> bool,
) -> bool {
    for b in 0..seen.len() {
        if seen[b] || !fits(a, b) {
            continue;
        }
        seen[b] = true;
        if owner[b].is_none_or(|other| augment(other, seen, owner, fits)) {
            owner[b] = Some(a);
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuba_pds::{CpdsBuilder, PdsBuilder, SharedState, Stack, StackSym};
    use std::collections::HashSet;
    use std::convert::Infallible;

    /// `n` copies of a one-action thread starting on stack `0`.
    fn copies(n: usize) -> Cpds {
        let mut p = PdsBuilder::new(2, 40);
        p.overwrite(SharedState(0), StackSym(0), SharedState(1), StackSym(1))
            .unwrap();
        CpdsBuilder::new(2, SharedState(0))
            .threads(&p.build().unwrap(), [StackSym(0)], n)
            .build()
            .unwrap()
    }

    fn stack(syms: &[u32]) -> Stack {
        Stack::from_top_down(syms.iter().map(|&x| StackSym(x)))
    }

    /// The canonical order depends on stack content alone, not on the
    /// order a table interned the stacks in, so it survives a restore
    /// that re-interns them.
    #[test]
    fn canonical_form_ignores_interning_order() {
        let symmetry = Symmetry::new(&copies(3));
        let words = [stack(&[2]), stack(&[1, 3]), stack(&[1])];
        let canonical = |order: &[usize]| {
            let mut table = StackTable::new();
            for &i in order {
                table.intern(&words[i]);
            }
            let mut ids: Vec<u32> = words.iter().map(|w| table.intern(w).0).collect();
            symmetry.canonicalize(&table, &mut ids);
            assert!(symmetry.is_canonical(&table, &ids));
            ids.iter()
                .map(|&id| table.to_stack(StackId(id)))
                .collect::<Vec<_>>()
        };
        let want = vec![stack(&[1]), stack(&[2]), stack(&[1, 3])];
        assert_eq!(canonical(&[0, 1, 2]), want);
        assert_eq!(canonical(&[2, 1, 0]), want);
        assert_eq!(canonical(&[1, 0, 2]), want);
    }

    /// The matching finds a permutation within classes when one
    /// exists, even when a greedy choice would block it, holds the
    /// other threads fixed, and asks each pair of a class at most once.
    #[test]
    fn some_permutation_matches_within_classes() {
        let symmetry = Symmetry::new(&copies(3));
        let fits = |edges: &[(usize, usize)]| {
            let asked = std::cell::Cell::new(0);
            let found = symmetry.some_permutation(|i, j| {
                asked.set(asked.get() + 1);
                edges.contains(&(i, j))
            });
            assert!(asked.get() <= 9);
            found
        };
        assert!(fits(&[(0, 0), (1, 1), (2, 2)]));
        assert!(fits(&[(0, 0), (0, 1), (1, 0), (2, 1), (2, 2)]));
        assert!(!fits(&[(0, 2), (1, 2), (2, 2), (2, 0)]));

        let mut other = PdsBuilder::new(2, 40);
        other
            .overwrite(SharedState(1), StackSym(0), SharedState(0), StackSym(1))
            .unwrap();
        let mixed = CpdsBuilder::new(2, SharedState(0))
            .thread(copies(1).thread(0).clone(), [StackSym(0)])
            .thread(other.build().unwrap(), [StackSym(0)])
            .thread(copies(1).thread(0).clone(), [StackSym(0)])
            .build()
            .unwrap();
        let symmetry = Symmetry::new(&mixed);
        assert!(symmetry.some_permutation(|i, j| [(0, 2), (2, 0), (1, 1)].contains(&(i, j))));
        assert!(!symmetry.some_permutation(|i, j| i != 1 || j != 1));
    }

    /// The members of the orbit of the state keyed `key`, in walk
    /// order.
    fn walk(symmetry: &Symmetry, key: &[u32]) -> Vec<Vec<u32>> {
        let mut key = key.to_vec();
        let mut members = Vec::new();
        let Ok(()) = symmetry.for_each_arrangement(&mut key, |member| {
            members.push(member.to_vec());
            Ok::<(), Infallible>(())
        });
        members
    }

    /// The walk visits each distinct arrangement within classes once,
    /// the first class slowest and `key` first, and on an error stops
    /// at once and leaves `key` as it found it.
    #[test]
    fn arrangements_are_walked_in_place_in_a_fixed_order() {
        let mut p = PdsBuilder::new(2, 40);
        p.overwrite(SharedState(0), StackSym(0), SharedState(1), StackSym(1))
            .unwrap();
        let pds = p.build().unwrap();
        let cpds = CpdsBuilder::new(2, SharedState(0))
            .threads(&pds, [StackSym(0)], 3)
            .threads(&pds, [StackSym(1)], 2)
            .build()
            .unwrap();
        let symmetry = Symmetry::new(&cpds);
        let (a, b, c, d) = (1, 2, 3, 4);
        let key = [9, a, b, a, c, d];
        assert_eq!(
            walk(&symmetry, &key),
            [
                [9, a, b, a, c, d],
                [9, a, b, a, d, c],
                [9, a, a, b, c, d],
                [9, a, a, b, d, c],
                [9, b, a, a, c, d],
                [9, b, a, a, d, c],
            ]
        );

        let mut walked = key;
        let mut calls = 0;
        let stopped = symmetry.for_each_arrangement(&mut walked, |_| {
            calls += 1;
            if calls == 3 {
                Err(calls)
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped, calls, walked), (Err(3), 3, key));
    }

    /// Orbit sizes are multinomials over equal stacks, match the orbit
    /// walked, and saturate.
    #[test]
    fn weights_count_orbit_members() {
        let symmetry = Symmetry::new(&copies(4));
        let mut table = StackTable::new();
        let (a, b) = (table.intern(&stack(&[1])).0, table.intern(&stack(&[2])).0);
        let decode = |key: &[u32]| {
            let stacks = key[1..].iter().map(|&id| table.to_stack(StackId(id)));
            GlobalState::new(SharedState(key[0]), stacks.collect())
        };
        for ids in [[a, a, a, a], [a, a, a, b], [a, a, b, b], [a, b, b, b]] {
            let key = [0, ids[0], ids[1], ids[2], ids[3]];
            let orbit = walk(&symmetry, &key);
            assert_eq!(orbit[0], key);
            assert_eq!(symmetry.weight(&ids), orbit.len());
            assert_eq!(orbit.iter().collect::<HashSet<_>>().len(), orbit.len());
            assert!(orbit
                .iter()
                .all(|member| symmetry.matching(&decode(&key), &decode(member)).is_some()));
        }
        assert_eq!(symmetry.weight(&[a, a, b, b]), 6);
        let wide = Symmetry::new(&copies(36));
        let distinct: Vec<u32> = (0..36).map(|i| table.intern(&stack(&[i])).0).collect();
        assert_eq!(wide.weight(&distinct), usize::MAX);
    }
}
