//! An O(1) LRU list keyed by logical page number — the one LRU of the workspace:
//! PPB's hot area, the two-level LRU classifier and the fleet's writeback cache.
//!
//! Each tracks (potentially many thousands of) entries and touches one on every
//! host request, so the usual `VecDeque::remove` approach would make request
//! handling O(list length). The list is therefore threaded through a dense table
//! indexed by LPN — entry `lpn` holds the LPNs before and after it, or says the
//! key is not on the list — so touch / insert / evict / remove are O(1) and
//! hash-free.
//!
//! A list is its order ([`LruOrder`]) plus the [`ListTable`] its links live
//! in. Lists whose keys are on at most one of them share a table, told apart by
//! the tag of each entry: PPB's hot and iron-hot lists (beside its cold table),
//! and the two-level LRU classifier's two lists. [`LruList`] owns one order and
//! its own table (the fleet's writeback cache).

use crate::types::Lpn;

/// Where an entry's tag starts in its first word.
const TAG_SHIFT: u32 = 30;

/// The bits of an entry's 30-bit field; all ones is also the end-of-list marker,
/// in a link and in an [`LruOrder`]'s head and tail.
const END: u32 = (1 << TAG_SHIFT) - 1;

/// One 8-byte entry per key, in keys `0..len`: a 2-bit tag (0 means the key is in
/// nothing), a 30-bit field and a 32-bit word, stored as two `u32`s so that each
/// link update is one plain store.
///
/// What the field and word mean is up to the owner of the tag. On an
/// [`LruOrder`]'s list they are the links to the more recently used key and to
/// the less recently used one (the 30-bit all-ones value at either end); PPB's
/// cold table keeps a read count and a bucket position there. A key at or past
/// [`ListTable::MAX_KEYS`] cannot be held, and a key past the table reads as in
/// nothing.
///
/// # Example
///
/// ```
/// use vflash_ftl::{ListTable, LruOrder};
///
/// let mut table = ListTable::new(100);
/// let (mut first, mut second) = (LruOrder::new(4, 1), LruOrder::new(4, 2));
/// first.insert(&mut table, 7);
/// second.insert(&mut table, 8);
/// table.set(9, 3, 42, 5); // tag 3 is neither list's: a read count and a slot
/// assert_eq!([7, 8, 9, 10].map(|key| table.tag(key)), [1, 2, 3, 0]);
/// assert_eq!(table.entry(9), (3, 42, 5));
/// assert!(first.check(&table).is_ok() && second.check(&table).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ListTable {
    /// Per key: `[tag << 30 | field, word]`.
    entries: Vec<[u32; 2]>,
}

impl ListTable {
    /// Most keys a table holds: a field keeps 30 bits of key, and all ones marks
    /// the end of a list (16 TiB of 16 KiB pages).
    pub const MAX_KEYS: u64 = END as u64;

    /// A table of keys `0..keys`, every one in nothing.
    ///
    /// # Panics
    ///
    /// Panics if `keys` exceeds [`ListTable::MAX_KEYS`].
    pub fn new(keys: u64) -> Self {
        let mut table = ListTable::default();
        table.reserve(keys);
        table
    }

    /// Grows the table to hold keys `0..keys`, if it does not already.
    ///
    /// # Panics
    ///
    /// Panics if `keys` exceeds [`ListTable::MAX_KEYS`].
    #[inline]
    pub fn reserve(&mut self, keys: u64) {
        if keys as usize > self.entries.len() {
            assert!(keys <= Self::MAX_KEYS, "list table keys must be below 2^30 - 1");
            if self.entries.is_empty() {
                // Zeroed by the allocator: a page of the table costs memory only
                // once a key on it is set.
                self.entries = vec![[0; 2]; keys as usize];
            } else {
                self.entries.resize(keys as usize, [0; 2]);
            }
        }
    }

    /// The key of `lpn`. An LPN past the table clamps to its length, which reads
    /// as in nothing and which every write refuses (an index panic, never an
    /// aliased key).
    #[inline]
    pub fn key(&self, lpn: Lpn) -> u32 {
        lpn.0.min(self.entries.len() as u64) as u32
    }

    /// The tag of `key`: 0 if it is in nothing or past the table.
    #[inline]
    pub fn tag(&self, key: u32) -> u32 {
        self.entry(key).0
    }

    /// The tag, field and word of `key`; all zero past the table.
    #[inline]
    pub fn entry(&self, key: u32) -> (u32, u32, u32) {
        let [tagged, word] = self.entries.get(key as usize).copied().unwrap_or_default();
        (tagged >> TAG_SHIFT, tagged & END, word)
    }

    /// Sets the entry of `key`: a tag in `0..4`, a field below 2^30 and a word.
    #[inline]
    pub fn set(&mut self, key: u32, tag: u32, field: u32, word: u32) {
        debug_assert!(tag < 4 && field <= END, "tag {tag} or field {field} out of range");
        self.entries[key as usize] = [tag << TAG_SHIFT | field, word];
    }

    /// Replaces the word of `key`.
    #[inline]
    pub fn set_word(&mut self, key: u32, word: u32) {
        self.entries[key as usize][1] = word;
    }

    /// Puts `key` in nothing.
    #[inline]
    pub fn clear(&mut self, key: u32) {
        self.entries[key as usize] = [0; 2];
    }

    /// Number of keys carrying each tag, indexed by tag.
    pub fn census(&self) -> [usize; 4] {
        let mut census = [0; 4];
        for &[tagged, _] in &self.entries {
            census[(tagged >> TAG_SHIFT) as usize] += 1;
        }
        census
    }

    /// Heap bytes the table holds.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<[u32; 2]>()
    }
}

/// The order of a fixed-capacity LRU list threaded through a [`ListTable`] the
/// caller passes to every call: head (most recently used), tail (least recently
/// used), length, capacity and the tag that marks the list's keys in the table.
///
/// A key is on the list when its entry carries the list's tag; its field then
/// links to the more recently used key and its word to the less recently used
/// one. Every method that reads or changes the list takes the same table the
/// list was built in, and a key must leave whatever else holds it in the table
/// before the list takes it.
#[derive(Debug, Clone)]
pub struct LruOrder {
    head: u32,
    tail: u32,
    /// The list's tag, in place: `tag << 30`.
    tag_bits: u32,
    len: usize,
    capacity: usize,
}

impl LruOrder {
    /// Creates an empty order holding at most `capacity` entries, marking its keys
    /// with `tag`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `tag` is not 1, 2 or 3.
    pub fn new(capacity: usize, tag: u32) -> Self {
        assert!(capacity > 0, "lru capacity must be positive");
        assert!((1..4).contains(&tag), "a list's tag must be 1, 2 or 3");
        LruOrder { head: END, tail: END, tag_bits: tag << TAG_SHIFT, len: 0, capacity }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the list is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// The least recently used key, if any.
    pub fn least_recent(&self) -> Option<u32> {
        (self.tail != END).then_some(self.tail)
    }

    /// The most recently used key, if any.
    pub fn most_recent(&self) -> Option<u32> {
        (self.head != END).then_some(self.head)
    }

    /// Whether `key` is on the list.
    #[inline]
    pub fn contains(&self, table: &ListTable, key: u32) -> bool {
        self.links(table, key).is_some()
    }

    /// `key`'s links `(prev, next)`, or `None` if it is not on the list.
    #[inline]
    fn links(&self, table: &ListTable, key: u32) -> Option<(u32, u32)> {
        let &[tagged, next] = table.entries.get(key as usize)?;
        (tagged & !END == self.tag_bits).then_some((tagged & END, next))
    }

    #[inline]
    fn detach(&mut self, table: &mut ListTable, (prev, next): (u32, u32)) {
        if prev != END {
            table.entries[prev as usize][1] = next;
        } else {
            self.head = next;
        }
        if next != END {
            table.entries[next as usize][0] = self.tag_bits | prev;
        } else {
            self.tail = prev;
        }
    }

    #[inline]
    fn attach_front(&mut self, table: &mut ListTable, key: u32) {
        table.entries[key as usize] = [self.tag_bits | END, self.head];
        if self.head != END {
            table.entries[self.head as usize][0] = self.tag_bits | key;
        } else {
            self.tail = key;
        }
        self.head = key;
    }

    /// Moves `key` to the most-recently-used position. Returns `false` if it was
    /// not on the list.
    #[inline]
    pub fn touch(&mut self, table: &mut ListTable, key: u32) -> bool {
        let Some(links) = self.links(table, key) else { return false };
        if self.head != key {
            self.detach(table, links);
            self.attach_front(table, key);
        }
        true
    }

    /// Inserts `key` at the most-recently-used position (touching it if already
    /// present). If the list overflows, the least recently used key is evicted and
    /// returned.
    #[inline]
    pub fn insert(&mut self, table: &mut ListTable, key: u32) -> Option<u32> {
        if self.touch(table, key) {
            return None;
        }
        let evicted = if self.is_full() { self.pop_least_recent(table) } else { None };
        self.attach_front(table, key);
        self.len += 1;
        evicted
    }

    /// Removes and returns the least recently used key.
    #[inline]
    pub fn pop_least_recent(&mut self, table: &mut ListTable) -> Option<u32> {
        let key = self.least_recent()?;
        self.remove(table, key);
        Some(key)
    }

    /// Removes `key` from the list. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, table: &mut ListTable, key: u32) -> bool {
        let Some(links) = self.links(table, key) else { return false };
        self.detach(table, links);
        table.clear(key);
        self.len -= 1;
        true
    }

    /// Iterates from most recently used to least recently used.
    pub fn iter<'a>(&self, table: &'a ListTable) -> impl Iterator<Item = u32> + 'a {
        let listed = |key: u32| (key != END).then_some(key);
        std::iter::successors(listed(self.head), move |&key| listed(table.entries[key as usize][1]))
    }

    /// Checks that the list is well formed in `table`: walked from the head, each
    /// key carries the list's tag and links back to the key before it, and the
    /// walk ends at the tail after exactly the list's length.
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check(&self, table: &ListTable) -> Result<(), String> {
        let tag = self.tag_bits >> TAG_SHIFT;
        let (mut prev, mut key, mut walked) = (END, self.head, 0);
        while key != END {
            let Some((back, next)) = self.links(table, key) else {
                return Err(format!("list {tag} holds key {key}, tagged {}", table.tag(key)));
            };
            if back != prev {
                return Err(format!("key {key} on list {tag} does not link back to key {prev}"));
            }
            walked += 1;
            if walked > self.len {
                return Err(format!("list {tag} is longer than its length {}", self.len));
            }
            (prev, key) = (key, next);
        }
        if walked != self.len || self.tail != prev {
            return Err(format!("list {tag} walks {walked} keys but holds {}", self.len));
        }
        Ok(())
    }
}

/// The tag of an [`LruList`]'s keys in its own table.
const LISTED: u32 = 1;

/// A fixed-capacity least-recently-used list of LPNs that owns its link table.
///
/// The *head* is the most recently used entry, the *tail* the least recently used.
/// Keys must be below [`ListTable::MAX_KEYS`] (16 TiB of 16 KiB pages); the table
/// holds 8 bytes per key in `0..=highest key seen`, grown on demand unless
/// [`LruList::reserve_keys`] sized it up front. Equality compares capacity and
/// recency order, not how far the key table happened to grow.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ftl::LruList;
///
/// let mut lru = LruList::new(2);
/// assert_eq!(lru.insert(Lpn(1)), None);
/// assert_eq!(lru.insert(Lpn(2)), None);
/// // Touching LPN1 makes LPN2 the eviction candidate.
/// lru.touch(Lpn(1));
/// assert_eq!(lru.insert(Lpn(3)), Some(Lpn(2)));
/// ```
#[derive(Debug, Clone)]
pub struct LruList {
    order: LruOrder,
    table: ListTable,
}

impl PartialEq for LruList {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.iter().eq(other.iter())
    }
}

impl Eq for LruList {}

fn lpn_of(key: u32) -> Lpn {
    Lpn(u64::from(key))
}

impl LruList {
    /// Creates an empty list holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruList { order: LruOrder::new(capacity, LISTED), table: ListTable::default() }
    }

    /// Sizes the key table for keys in `0..keys` up front, so inserting any of
    /// them never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `keys` exceeds [`ListTable::MAX_KEYS`].
    pub fn reserve_keys(&mut self, keys: u64) {
        self.table.reserve(keys);
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.order.capacity()
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether the list is at capacity.
    pub fn is_full(&self) -> bool {
        self.order.is_full()
    }

    /// Whether `lpn` is on the list.
    #[inline]
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.order.contains(&self.table, self.table.key(lpn))
    }

    /// The least recently used entry, if any.
    pub fn least_recent(&self) -> Option<Lpn> {
        self.order.least_recent().map(lpn_of)
    }

    /// The most recently used entry, if any.
    pub fn most_recent(&self) -> Option<Lpn> {
        self.order.most_recent().map(lpn_of)
    }

    /// Moves `lpn` to the most-recently-used position. Returns `false` if it was not
    /// on the list.
    #[inline]
    pub fn touch(&mut self, lpn: Lpn) -> bool {
        let key = self.table.key(lpn);
        self.order.touch(&mut self.table, key)
    }

    /// Inserts `lpn` at the most-recently-used position (touching it if already
    /// present). If the list overflows, the least recently used entry is evicted and
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is not below [`ListTable::MAX_KEYS`].
    #[inline]
    pub fn insert(&mut self, lpn: Lpn) -> Option<Lpn> {
        self.table.reserve(lpn.0.saturating_add(1));
        self.order.insert(&mut self.table, lpn.0 as u32).map(lpn_of)
    }

    /// Removes and returns the least recently used entry.
    #[inline]
    pub fn pop_least_recent(&mut self) -> Option<Lpn> {
        self.order.pop_least_recent(&mut self.table).map(lpn_of)
    }

    /// Removes `lpn` from the list. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let key = self.table.key(lpn);
        self.order.remove(&mut self.table, key)
    }

    /// Iterates from most recently used to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.order.iter(&self.table).map(lpn_of)
    }

    /// Checks that the list is well formed (see [`LruOrder::check`]).
    ///
    /// # Errors
    ///
    /// Describes the first violation found.
    pub fn check(&self) -> Result<(), String> {
        self.order.check(&self.table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_touch_evict_cycle() {
        let mut lru = LruList::new(3);
        assert!(lru.is_empty());
        assert_eq!(lru.insert(Lpn(1)), None);
        assert_eq!(lru.insert(Lpn(2)), None);
        assert_eq!(lru.insert(Lpn(3)), None);
        assert!(lru.is_full());
        assert_eq!(lru.least_recent(), Some(Lpn(1)));
        assert!(lru.touch(Lpn(1)));
        assert_eq!(lru.least_recent(), Some(Lpn(2)));
        assert_eq!(lru.insert(Lpn(4)), Some(Lpn(2)));
        assert_eq!(lru.len(), 3);
        assert!(!lru.contains(Lpn(2)));
    }

    #[test]
    fn reinserting_existing_entry_only_touches() {
        let mut lru = LruList::new(2);
        lru.insert(Lpn(1));
        lru.insert(Lpn(2));
        assert_eq!(lru.insert(Lpn(1)), None);
        assert_eq!(lru.most_recent(), Some(Lpn(1)));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn remove_and_slot_reuse() {
        let mut lru = LruList::new(3);
        lru.insert(Lpn(1));
        lru.insert(Lpn(2));
        lru.insert(Lpn(3));
        assert!(lru.remove(Lpn(2)));
        assert!(!lru.remove(Lpn(2)));
        assert_eq!(lru.len(), 2);
        lru.insert(Lpn(4));
        let order: Vec<_> = lru.iter().collect();
        assert_eq!(order, vec![Lpn(4), Lpn(3), Lpn(1)]);
    }

    #[test]
    fn iteration_order_is_recency_order() {
        let mut lru = LruList::new(4);
        for lpn in [10, 20, 30, 40] {
            lru.insert(Lpn(lpn));
        }
        lru.touch(Lpn(20));
        let order: Vec<_> = lru.iter().collect();
        assert_eq!(order, vec![Lpn(20), Lpn(40), Lpn(30), Lpn(10)]);
    }

    #[test]
    fn pop_least_recent_drains_in_order() {
        let mut lru = LruList::new(3);
        for lpn in [1, 2, 3] {
            lru.insert(Lpn(lpn));
        }
        assert_eq!(lru.pop_least_recent(), Some(Lpn(1)));
        assert_eq!(lru.pop_least_recent(), Some(Lpn(2)));
        assert_eq!(lru.pop_least_recent(), Some(Lpn(3)));
        assert_eq!(lru.pop_least_recent(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn touch_of_absent_entry_is_false() {
        let mut lru = LruList::new(2);
        assert!(!lru.touch(Lpn(5)));
    }

    #[test]
    fn lpns_past_the_key_range_are_on_no_list() {
        let mut lru = LruList::new(2);
        lru.insert(Lpn(1));
        // 2^32 + 1 must not alias key 1.
        let alias = Lpn((1 << 32) + 1);
        assert!(!lru.contains(alias));
        assert!(!lru.touch(alias));
        assert!(!lru.remove(alias));
        assert!(lru.contains(Lpn(1)));
    }

    #[test]
    #[should_panic(expected = "below 2^30 - 1")]
    fn inserting_past_the_key_range_panics() {
        let mut lru = LruList::new(2);
        lru.insert(Lpn(ListTable::MAX_KEYS));
    }

    #[test]
    fn a_table_entry_round_trips_its_tag_field_and_word() {
        let mut table = ListTable::new(4);
        let last = (ListTable::MAX_KEYS - 1) as u32;
        for tag in 0..4 {
            for field in [0, last, END] {
                for word in [0, u32::MAX] {
                    table.set(2, tag, field, word);
                    assert_eq!(table.entry(2), (tag, field, word));
                    assert_eq!(table.tag(2), tag);
                    assert_eq!(table.entry(1), (0, 0, 0), "a neighbour stays in nothing");
                }
            }
        }
        table.set_word(2, 7);
        assert_eq!(table.entry(2), (3, END, 7));
        table.clear(2);
        assert_eq!(table.entry(2), (0, 0, 0));
        // Past the table a key reads as in nothing, whatever its value.
        for key in [4, END, u32::MAX] {
            assert_eq!(table.entry(key), (0, 0, 0));
        }
        assert_eq!(table.key(Lpn((1 << 32) + 1)), 4, "an LPN past the table clamps to its length");
        assert_eq!(table.heap_bytes(), 4 * 8);
    }

    #[test]
    #[should_panic(expected = "below 2^30 - 1")]
    fn tables_past_the_key_range_are_refused() {
        let _ = ListTable::new(ListTable::MAX_KEYS + 1);
    }

    #[test]
    fn the_check_finds_a_broken_link_a_stray_tag_and_a_wrong_length() {
        let mut table = ListTable::new(8);
        let mut order = LruOrder::new(4, 2);
        for key in [1, 2, 3] {
            order.insert(&mut table, key);
        }
        order.check(&table).unwrap();
        let (tag, prev, next) = table.entry(2);
        table.set(2, 3, prev, next);
        assert!(order.check(&table).unwrap_err().contains("holds key 2, tagged 3"));
        table.set(2, tag, 1, next);
        assert!(order.check(&table).unwrap_err().contains("does not link back"));
        table.set(2, tag, prev, next);
        order.check(&table).unwrap();
        order.len = 2;
        assert!(order.check(&table).unwrap_err().contains("longer than its length 2"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LruList::new(0);
    }

    #[test]
    fn capacity_one_always_holds_most_recent() {
        let mut lru = LruList::new(1);
        assert_eq!(lru.insert(Lpn(1)), None);
        assert_eq!(lru.insert(Lpn(2)), Some(Lpn(1)));
        assert_eq!(lru.most_recent(), Some(Lpn(2)));
        assert_eq!(lru.least_recent(), Some(Lpn(2)));
    }
}
