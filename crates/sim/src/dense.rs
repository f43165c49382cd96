//! Small lists keyed by a dense id, found by indexing instead of hashing.

/// What [`DenseLists`] summarises a list by: a word naming what an item
/// belongs to, so that a question without a key can scan the summaries
/// instead of the lists. Two items may share a tag without being alike;
/// the tag only narrows where to look.
pub trait Tagged {
    /// The item's tag. It must not change while the item is held.
    fn tag(&self) -> u32;
}

/// The summary of a list whose items do not all share one tag.
const MIXED: u32 = u32::MAX;

/// A key's items, never none: the usual single item inline, from a second
/// on a vector, until the key empties.
#[derive(Clone, Debug)]
enum Few<T> {
    One(T),
    Many(Vec<T>),
}

impl<T> Few<T> {
    fn as_slice(&self) -> &[T] {
        match self {
            Few::One(item) => std::slice::from_ref(item),
            Few::Many(items) => items,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [T] {
        match self {
            Few::One(item) => std::slice::from_mut(item),
            Few::Many(items) => items,
        }
    }

    fn insert(&mut self, at: usize, item: T) {
        if let Few::Many(items) = self {
            return items.insert(at, item);
        }
        let mut items = Vec::with_capacity(2);
        if let Few::One(first) = std::mem::replace(self, Few::Many(Vec::new())) {
            items.push(first);
        }
        items.insert(at, item);
        *self = Few::Many(items);
    }

    /// Drops the items `keep` rejects and says how many are left; at none
    /// the caller drops the list.
    fn retain(&mut self, mut keep: impl FnMut(&mut T) -> bool) -> usize {
        match self {
            Few::One(item) => usize::from(keep(item)),
            Few::Many(items) => {
                items.retain_mut(keep);
                items.len()
            }
        }
    }
}

/// Small lists of `T`, one per key of a dense, bounded key space such as a
/// schedule's slots. A key's list is found by indexing, with no hashing and
/// no probe sequence; a key that holds nothing costs one word. The lists
/// sit side by side in one pool, so memory follows what is held rather than
/// the key space, and a list's usual single item sits in the pool itself:
/// only a second costs an allocation. Beside each list is its summary, the
/// [`Tagged::tag`] its items share, which [`DenseLists::tagged`] scans at
/// eight bytes a list.
///
/// Iteration is by ascending key and, within a key, in the list's order:
/// the order items were inserted at, but for [`DenseLists::swap_remove`]'s
/// swap.
#[derive(Clone, Debug)]
pub struct DenseLists<T> {
    /// Per key, one more than its list's place in `lists`, or 0 for none.
    /// Grows to the largest key held.
    at: Vec<u32>,
    /// The non-empty lists, in no particular order.
    lists: Vec<Few<T>>,
    /// Per list, its key and its summary: the tag its items share, else
    /// [`MIXED`].
    heads: Vec<(u32, u32)>,
    /// Items over all lists.
    len: usize,
}

impl<T> Default for DenseLists<T> {
    fn default() -> Self {
        DenseLists {
            at: Vec::new(),
            lists: Vec::new(),
            heads: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Tagged> DenseLists<T> {
    fn list(&self, key: u32) -> Option<usize> {
        let at = *self.at.get(key as usize)?;
        at.checked_sub(1).map(|i| i as usize)
    }

    /// `key`'s items; empty if it holds none.
    pub fn get(&self, key: u32) -> &[T] {
        self.list(key).map_or(&[], |i| self.lists[i].as_slice())
    }

    /// `key`'s items, to change in place (but not their tags).
    pub fn get_mut(&mut self, key: u32) -> &mut [T] {
        match self.list(key) {
            Some(i) => self.lists[i].as_mut_slice(),
            None => &mut [],
        }
    }

    /// Inserts `item` at place `at` of `key`'s list.
    ///
    /// # Panics
    ///
    /// If `at` is past the list's end.
    pub fn insert(&mut self, key: u32, at: usize, item: T) {
        self.len += 1;
        let tag = item.tag();
        if let Some(i) = self.list(key) {
            self.lists[i].insert(at, item);
            let shared = &mut self.heads[i].1;
            if *shared != tag {
                *shared = MIXED;
            }
            return;
        }
        assert_eq!(at, 0, "place {at} in an empty list");
        let k = key as usize;
        if k >= self.at.len() {
            // To the key and no further: a key space is bounded, and its
            // largest keys turn up within a few new maxima.
            self.at.reserve_exact(k + 1 - self.at.len());
            self.at.resize(k + 1, 0);
        }
        self.lists.push(Few::One(item));
        self.heads.push((key, tag));
        self.at[k] = self.lists.len() as u32;
    }

    /// Appends `item` to `key`'s list.
    pub fn push(&mut self, key: u32, item: T) {
        self.insert(key, self.get(key).len(), item);
    }

    /// Removes and returns item `at` of `key`'s list, the list's last item
    /// taking its place.
    ///
    /// # Panics
    ///
    /// If `key`'s list has no item `at`.
    pub fn swap_remove(&mut self, key: u32, at: usize) -> T {
        let i = self.list(key).expect("a list at the key");
        self.len -= 1;
        match &mut self.lists[i] {
            Few::Many(items) if items.len() > 1 => {
                let item = items.swap_remove(at);
                self.summarise(i);
                item
            }
            _ => {
                let item = match self.unlist(i) {
                    Few::One(item) => item,
                    Few::Many(mut items) => items.pop().expect("one item"),
                };
                assert_eq!(at, 0, "place {at} in a list of one");
                item
            }
        }
    }

    /// Drops `key`'s items that `keep` rejects; how many it dropped.
    pub fn retain(&mut self, key: u32, keep: impl FnMut(&mut T) -> bool) -> usize {
        self.list(key).map_or(0, |i| self.retain_list(i, keep))
    }

    /// Drops every item `keep` rejects, over all keys.
    pub fn retain_all(&mut self, mut keep: impl FnMut(&mut T) -> bool) {
        // From the back, so the list `unlist` swaps into a gap was seen.
        for i in (0..self.lists.len()).rev() {
            self.retain_list(i, &mut keep);
        }
    }

    fn retain_list(&mut self, i: usize, keep: impl FnMut(&mut T) -> bool) -> usize {
        let before = self.lists[i].as_slice().len();
        let left = self.lists[i].retain(keep);
        self.len -= before - left;
        if left == 0 {
            self.unlist(i);
        } else if left != before {
            self.summarise(i);
        }
        before - left
    }

    /// Takes list `i` out of the pool, the last list taking its place.
    fn unlist(&mut self, i: usize) -> Few<T> {
        let list = self.lists.swap_remove(i);
        let (key, _) = self.heads.swap_remove(i);
        self.at[key as usize] = 0;
        if let Some(&(moved, _)) = self.heads.get(i) {
            self.at[moved as usize] = i as u32 + 1;
        }
        list
    }

    /// Re-derives list `i`'s summary from its items.
    fn summarise(&mut self, i: usize) {
        let mut tags = self.lists[i].as_slice().iter().map(T::tag);
        let first = tags.next().expect("a listed key holds an item");
        self.heads[i].1 = if tags.all(|tag| tag == first) {
            first
        } else {
            MIXED
        };
    }

    /// Every item of every list that might hold one tagged `tag`: a scan
    /// of the summaries, and of a list's items only where they match.
    pub fn tagged(&self, tag: u32) -> impl Iterator<Item = &T> {
        let lists = self.heads.iter().zip(&self.lists);
        lists
            .filter(move |((_, shared), _)| *shared == tag || *shared == MIXED)
            .flat_map(|(_, list)| list.as_slice())
    }

    /// Every item, in no particular order but a reproducible one: a walk
    /// of what is held, not of the key space.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.lists.iter().flat_map(Few::as_slice)
    }

    /// Every `(key, item)`, by ascending key.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        let keys = (0u32..).zip(&self.at);
        keys.filter(|(_, &at)| at != 0).flat_map(move |(key, &at)| {
            let items = self.lists[at as usize - 1].as_slice();
            items.iter().map(move |item| (key, item))
        })
    }

    /// Items over all keys.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every item. The key index keeps its length.
    pub fn clear(&mut self) {
        self.at.fill(0);
        self.lists.clear();
        self.heads.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check;
    use std::collections::BTreeMap;

    /// An item: its tag, and a serial to tell items apart.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Item(u32, u32);

    impl Tagged for Item {
        fn tag(&self) -> u32 {
            self.0
        }
    }

    /// Every operation against one `Vec` a key in a `BTreeMap`: the lists
    /// in order, `len`, ascending-key iteration, and what `tagged` yields
    /// for every tag (each matching item at least, nothing from a list
    /// whose summary rules it out).
    #[test]
    fn dense_lists_match_the_vec_model() {
        check("dense_lists_match_the_vec_model", |rng| {
            let mut lists = DenseLists::default();
            let mut model: BTreeMap<u32, Vec<Item>> = BTreeMap::new();
            let mut serial = 0;
            for _ in 0..rng.gen_range(1usize..300) {
                let key = rng.gen_range(0u32..6);
                let held = model.get(&key).map_or(0, Vec::len);
                match rng.gen_range(0u32..10) {
                    0..=3 => {
                        serial += 1;
                        let item = Item(rng.gen_range(0u32..3), serial);
                        let at = rng.gen_range(0..held + 1);
                        lists.insert(key, at, item);
                        model.entry(key).or_default().insert(at, item);
                    }
                    4 | 5 if held > 0 => {
                        let at = rng.gen_range(0..held);
                        let items = model.get_mut(&key).expect("held");
                        assert_eq!(lists.swap_remove(key, at), items.swap_remove(at));
                    }
                    6 | 7 => {
                        let tag = rng.gen_range(0u32..3);
                        let dropped = lists.retain(key, |item| item.0 != tag);
                        let items = model.entry(key).or_default();
                        items.retain(|item| item.0 != tag);
                        assert_eq!(dropped, held - items.len());
                    }
                    8 => {
                        let serials = rng.gen_range(0u32..4);
                        lists.retain_all(|item| item.1 % 4 != serials);
                        for items in model.values_mut() {
                            items.retain(|item| item.1 % 4 != serials);
                        }
                    }
                    _ if rng.gen_bool(0.1) => {
                        lists.clear();
                        model.clear();
                    }
                    _ => {}
                }
                model.retain(|_, items| !items.is_empty());
                for key in 0..7 {
                    let want = model.get(&key).map_or(&[][..], Vec::as_slice);
                    assert_eq!(lists.get(key), want, "key {key}");
                    assert_eq!(lists.get_mut(key), want, "key {key}");
                }
                let listed: Vec<_> = lists.iter().map(|(k, item)| (k, *item)).collect();
                let want: Vec<_> = model
                    .iter()
                    .flat_map(|(&k, items)| items.iter().map(move |item| (k, *item)))
                    .collect();
                assert_eq!(listed, want, "by ascending key");
                assert_eq!(lists.len(), want.len());
                assert_eq!(lists.is_empty(), want.is_empty());
                for tag in 0..3 {
                    let mut got: Vec<_> = lists.tagged(tag).map(|item| item.1).collect();
                    got.sort_unstable();
                    // A list all of one tag is scanned for that tag only;
                    // a mixed one for every tag.
                    let scanned = model.values().filter(|items| {
                        let first = items[0].0;
                        first == tag || items.iter().any(|item| item.0 != first)
                    });
                    let mut want: Vec<_> = scanned.flatten().map(|item| item.1).collect();
                    want.sort_unstable();
                    assert_eq!(got, want, "tagged {tag}");
                }
            }
        });
    }
}
