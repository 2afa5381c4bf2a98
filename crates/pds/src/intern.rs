//! Interned state representations for the exploration engines.
//!
//! The engines store millions of states and look most of them up many
//! times; hashing and cloning whole stacks (or automata) per step is
//! what dominated their rounds. Two tables replace that:
//!
//! * [`KeyTable`] interns fixed-width `u32` keys — a global state as
//!   `(q, [StackId; n])`, a symbolic state as `(q, [DfaId; n])` — in
//!   one flat `Vec<u32>`, numbering them densely in insertion order.
//! * [`StackTable`] hash-conses stacks as cons cells `(top, rest)`, so
//!   a stack is one [`StackId`] and push, pop and overwrite are one
//!   table probe each.
//!
//! Neither table allocates per lookup, and a hit never allocates.

use std::cmp::Ordering;

use crate::{Action, Stack, StackSym};

/// Marks an empty slot of a [`KeyTable`]'s index.
const EMPTY_SLOT: u32 = u32::MAX;

/// Fixed-width `u32` keys interned to dense ids `0, 1, 2, …` in
/// insertion order.
///
/// The keys live back to back in one `Vec<u32>`; an open-addressing
/// index (linear probing, at most half full) maps a key to its id.
/// [`truncate`](Self::truncate) forgets the most recently inserted
/// keys, which is how an engine rolls back a failed round.
#[derive(Debug, Clone)]
pub struct KeyTable {
    width: usize,
    /// `words[id * width..][..width]` is the key of `id`.
    words: Vec<u32>,
    /// Ids by hash slot; `EMPTY_SLOT` marks a free slot. The length
    /// is a power of two.
    slots: Vec<u32>,
}

impl KeyTable {
    /// An empty table of `width`-word keys.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "keys need at least one word");
        KeyTable {
            width,
            words: Vec::new(),
            slots: vec![EMPTY_SLOT; 16],
        }
    }

    /// The number of words per key.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The number of interned keys.
    pub fn len(&self) -> usize {
        self.words.len() / self.width
    }

    /// Whether no key is interned.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The key of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn key(&self, id: u32) -> &[u32] {
        let start = id as usize * self.width;
        &self.words[start..start + self.width]
    }

    /// The id of `key`, if interned. Never allocates.
    pub fn find(&self, key: &[u32]) -> Option<u32> {
        debug_assert_eq!(key.len(), self.width);
        let mask = self.slots.len() - 1;
        let mut slot = hash_words(key) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                return None;
            }
            if self.key(id) == key {
                return Some(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `key`: returns its id and whether it was new. Only a new
    /// key allocates (amortized, by growing the flat storage).
    ///
    /// # Panics
    ///
    /// Panics if `key` has the wrong width, or if the table would hold
    /// `u32::MAX` keys.
    pub fn insert(&mut self, key: &[u32]) -> (u32, bool) {
        assert_eq!(key.len(), self.width, "key width");
        let mask = self.slots.len() - 1;
        let mut slot = hash_words(key) as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY_SLOT {
                break;
            }
            if self.key(id) == key {
                return (id, false);
            }
            slot = (slot + 1) & mask;
        }
        let id = u32::try_from(self.len())
            .ok()
            .filter(|&id| id != EMPTY_SLOT)
            .expect("key table overflow");
        self.words.extend_from_slice(key);
        self.slots[slot] = id;
        if 2 * self.len() > self.slots.len() {
            self.grow();
        }
        (id, true)
    }

    /// Forgets every key with id `>= len`, newest first, keeping the
    /// ids of the others. A no-op when `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        while self.len() > len {
            let id = (self.len() - 1) as u32;
            self.remove_slot_of(id);
            self.words.truncate(id as usize * self.width);
        }
    }

    /// Removes `id` (the newest key) from the index by backward-shift
    /// deletion, which keeps every probe sequence unbroken without
    /// tombstones.
    fn remove_slot_of(&mut self, id: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = hash_words(self.key(id)) as usize & mask;
        while self.slots[hole] != id {
            hole = (hole + 1) & mask;
        }
        let mut next = (hole + 1) & mask;
        loop {
            let other = self.slots[next];
            if other == EMPTY_SLOT {
                break;
            }
            let home = hash_words(self.key(other)) as usize & mask;
            // `other` may fill the hole iff its home slot does not lie
            // cyclically inside (hole, next].
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = other;
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = EMPTY_SLOT;
    }

    /// Doubles the index and re-slots every key.
    fn grow(&mut self) {
        let size = self.slots.len() * 2;
        let mask = size - 1;
        let mut slots = vec![EMPTY_SLOT; size];
        for id in 0..self.len() as u32 {
            let mut slot = hash_words(self.key(id)) as usize & mask;
            while slots[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            slots[slot] = id;
        }
        self.slots = slots;
    }
}

/// A multiply-rotate word hash with a final avalanche, so that linear
/// probing on the low bits sees well-spread slots even for keys that
/// differ in one small word.
fn hash_words(key: &[u32]) -> u64 {
    let mut h: u64 = 0;
    for &w in key {
        h = (h.rotate_left(26) ^ u64::from(w)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    h ^ (h >> 32)
}

/// An interned stack: an id into a [`StackTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackId(pub u32);

impl StackId {
    /// The empty stack `ε`, present in every table.
    pub const EMPTY: StackId = StackId(0);
}

/// A stack representation the PDS step rule rewrites (see
/// [`Action::apply_to`]): the plain [`Stack`], and a stack interned in
/// a [`StackTable`] via [`StackTable::apply`].
pub trait StackEdit {
    /// Removes the top symbol. Only called on stacks whose top an
    /// action matched, hence never on `ε`.
    fn pop_top(&mut self);
    /// Pushes `sym` on top.
    fn push_top(&mut self, sym: StackSym);
}

impl StackEdit for Stack {
    fn pop_top(&mut self) {
        self.pop();
    }

    fn push_top(&mut self, sym: StackSym) {
        self.push(sym);
    }
}

/// Hash-consed stacks: every stack is a cons cell `(top, rest)` over a
/// shorter interned stack, with [`StackId::EMPTY`] for `ε`. Equal
/// stacks get equal ids, so a global state is a fixed-width key
/// `(q, [StackId; n])` and comparing stacks is comparing ids.
///
/// Cells are only ever added. A failed exploration round may leave
/// cells no state refers to; they cost memory, never correctness.
#[derive(Debug, Clone)]
pub struct StackTable {
    /// Cell `id` is the key `[top, rest]`; cell 0 is a sentinel for
    /// `ε` whose key no push can produce.
    cells: KeyTable,
    /// The depth of each stack.
    lens: Vec<u32>,
}

impl Default for StackTable {
    fn default() -> Self {
        StackTable::new()
    }
}

impl StackTable {
    /// A table holding only `ε`.
    pub fn new() -> Self {
        let mut cells = KeyTable::new(2);
        cells.insert(&[u32::MAX, u32::MAX]);
        StackTable {
            cells,
            lens: vec![0],
        }
    }

    /// The top symbol of `id`, or `None` for `ε`.
    pub fn top(&self, id: StackId) -> Option<StackSym> {
        (id != StackId::EMPTY).then(|| StackSym(self.cells.key(id.0)[0]))
    }

    /// The stack below the top of `id` (pop); `ε` stays `ε`.
    pub fn rest(&self, id: StackId) -> StackId {
        if id == StackId::EMPTY {
            return id;
        }
        StackId(self.cells.key(id.0)[1])
    }

    /// The depth `|w|` of `id`.
    pub fn depth(&self, id: StackId) -> usize {
        self.lens[id.0 as usize] as usize
    }

    /// Orders two stacks by content, whatever their ids: the shallower
    /// first, then by symbols from the top down. Equal content is an
    /// equal id, so the walk stops at the first differing symbol.
    pub fn cmp_content(&self, mut a: StackId, mut b: StackId) -> Ordering {
        let by_depth = self.depth(a).cmp(&self.depth(b));
        if by_depth != Ordering::Equal {
            return by_depth;
        }
        while a != b {
            let (top_a, top_b) = (self.cells.key(a.0)[0], self.cells.key(b.0)[0]);
            if top_a != top_b {
                return top_a.cmp(&top_b);
            }
            a = self.rest(a);
            b = self.rest(b);
        }
        Ordering::Equal
    }

    /// Interns `sym` pushed onto `id`: one probe.
    pub fn push(&mut self, id: StackId, sym: StackSym) -> StackId {
        let (cell, new) = self.cells.insert(&[sym.0, id.0]);
        if new {
            self.lens.push(self.lens[id.0 as usize] + 1);
        }
        StackId(cell)
    }

    /// The stack `action` rewrites `id` into (the action's left-hand
    /// side must match `id`'s top).
    pub fn apply(&mut self, id: StackId, action: &Action) -> StackId {
        let mut cursor = Cursor { table: self, id };
        action.apply_to(&mut cursor);
        cursor.id
    }

    /// Interns a plain stack.
    pub fn intern(&mut self, stack: &Stack) -> StackId {
        stack
            .iter_bottom_up()
            .fold(StackId::EMPTY, |id, sym| self.push(id, sym))
    }

    /// The id of a plain stack, if interned. Read-only: interns
    /// nothing.
    pub fn find(&self, stack: &Stack) -> Option<StackId> {
        stack.iter_bottom_up().try_fold(StackId::EMPTY, |id, sym| {
            self.cells.find(&[sym.0, id.0]).map(StackId)
        })
    }

    /// The symbols of `id`, top first (paper order).
    pub fn iter_top_down(&self, id: StackId) -> impl Iterator<Item = StackSym> + '_ {
        let mut cur = id;
        std::iter::from_fn(move || {
            let top = self.top(cur)?;
            cur = self.rest(cur);
            Some(top)
        })
    }

    /// Materializes `id` as a plain [`Stack`].
    pub fn to_stack(&self, id: StackId) -> Stack {
        Stack::from_top_down(self.iter_top_down(id))
    }
}

/// A stack being rewritten inside a [`StackTable`].
struct Cursor<'a> {
    table: &'a mut StackTable,
    id: StackId,
}

impl StackEdit for Cursor<'_> {
    fn pop_top(&mut self) {
        self.id = self.table.rest(self.id);
    }

    fn push_top(&mut self, sym: StackSym) {
        self.id = self.table.push(self.id, sym);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::SharedState;
    use std::collections::HashMap;

    fn s(n: u32) -> StackSym {
        StackSym(n)
    }

    #[test]
    fn keys_get_dense_ids_in_insertion_order() {
        let mut t = KeyTable::new(3);
        assert!(t.is_empty());
        assert_eq!(t.insert(&[1, 2, 3]), (0, true));
        assert_eq!(t.insert(&[3, 2, 1]), (1, true));
        assert_eq!(t.insert(&[1, 2, 3]), (0, false));
        assert_eq!(t.len(), 2);
        assert_eq!(t.key(1), &[3, 2, 1]);
        assert_eq!(t.find(&[3, 2, 1]), Some(1));
        assert_eq!(t.find(&[0, 0, 0]), None);
    }

    /// Random inserts and truncations agree with a `HashMap` model,
    /// across many index growths and backward-shift deletions.
    #[test]
    fn key_table_matches_a_hash_map_model() {
        let mut rng = SplitMix64::new(3);
        let mut table = KeyTable::new(2);
        let mut model: Vec<[u32; 2]> = Vec::new();
        for round in 0..200 {
            for _ in 0..rng.gen_usize(300) {
                // A small key space forces hits as well as misses.
                let key = [rng.gen_u32(40), rng.gen_u32(40)];
                let expected = model.iter().position(|k| *k == key);
                let (id, new) = table.insert(&key);
                match expected {
                    Some(pos) => assert_eq!((id as usize, new), (pos, false)),
                    None => {
                        assert_eq!((id as usize, new), (model.len(), true));
                        model.push(key);
                    }
                }
            }
            if round % 3 == 0 {
                let len = rng.gen_usize(model.len() + 1);
                table.truncate(len);
                model.truncate(len);
            }
            assert_eq!(table.len(), model.len());
            let index: HashMap<[u32; 2], usize> =
                model.iter().enumerate().map(|(i, k)| (*k, i)).collect();
            for a in 0..40 {
                for b in 0..40 {
                    assert_eq!(
                        table.find(&[a, b]).map(|id| id as usize),
                        index.get(&[a, b]).copied()
                    );
                }
            }
        }
    }

    #[test]
    fn stacks_are_hash_consed() {
        let mut t = StackTable::new();
        let a = t.intern(&Stack::from_top_down([s(4), s(6), s(6)]));
        let below = t.intern(&Stack::from_top_down([s(6), s(6)]));
        let b = t.push(below, s(4));
        assert_eq!(a, b);
        assert_eq!(t.top(a), Some(s(4)));
        assert_eq!(t.depth(a), 3);
        assert_eq!(t.to_stack(a).to_string(), "466");
        assert_eq!(t.to_stack(t.rest(a)).to_string(), "66");
        assert_eq!(t.top(StackId::EMPTY), None);
        assert_eq!(t.depth(StackId::EMPTY), 0);
        assert_eq!(t.rest(StackId::EMPTY), StackId::EMPTY);
        assert_eq!(t.find(&Stack::from_top_down([s(6), s(6)])), Some(t.rest(a)));
        assert_eq!(t.find(&Stack::from_top_down([s(5)])), None);
        assert_eq!(t.find(&Stack::new()), Some(StackId::EMPTY));
    }

    /// The content order is depth, then symbols top-down, whatever
    /// order the stacks were interned in.
    #[test]
    fn content_order_ignores_ids() {
        let mut rng = SplitMix64::new(5);
        let mut t = StackTable::new();
        let stacks: Vec<Stack> = (0..60)
            .map(|_| Stack::from_top_down((0..rng.gen_usize(4)).map(|_| s(rng.gen_u32(3)))))
            .collect();
        let ids: Vec<StackId> = stacks.iter().map(|w| t.intern(w)).collect();
        let content = |w: &Stack| (w.len(), w.iter_top_down().collect::<Vec<_>>());
        for (a, wa) in ids.iter().zip(&stacks) {
            for (b, wb) in ids.iter().zip(&stacks) {
                assert_eq!(t.cmp_content(*a, *b), content(wa).cmp(&content(wb)));
            }
        }
    }

    /// The interned step and the plain step are the same rule.
    #[test]
    fn apply_agrees_with_plain_stacks() {
        let q = SharedState(0);
        let actions = [
            Action::pop(q, s(4), q),
            Action::overwrite(q, s(4), q, s(5)),
            Action::push(q, s(4), q, s(7), s(6)),
            Action::from_empty(q, q, Some(s(3))),
            Action::from_empty(q, q, None),
        ];
        let mut t = StackTable::new();
        for stack in [Stack::from_top_down([s(4), s(6)]), Stack::new()] {
            let id = t.intern(&stack);
            for action in actions.iter().filter(|a| a.top == stack.top()) {
                let mut plain = stack.clone();
                action.apply_to(&mut plain);
                let interned = t.apply(id, action);
                assert_eq!(t.to_stack(interned), plain, "{action}");
                assert_eq!(t.depth(interned), plain.len());
            }
        }
    }
}
