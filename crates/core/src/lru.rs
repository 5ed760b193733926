//! An O(1) LRU list keyed by logical page number.
//!
//! The hot area tracks (potentially many thousands of) hot and iron-hot entries and
//! touches one on every host request, so the usual `VecDeque::remove` approach would
//! make request handling O(list length). This implementation threads the list
//! through a dense table indexed by LPN — entry `lpn` holds the LPNs before and
//! after it, or the absent marker — so touch / insert / evict / remove are O(1)
//! and hash-free. The table costs 8 bytes per key in `0..=highest key seen`; it
//! grows on demand unless [`LruList::reserve_keys`] sized it up front.

use vflash_ftl::Lpn;

/// End-of-list marker in a link.
const NIL: u32 = u32::MAX;
/// `prev` value of a key that is not on the list.
const ABSENT: u32 = u32::MAX - 1;

#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link { prev: ABSENT, next: NIL };

/// A fixed-capacity least-recently-used list of LPNs.
///
/// The *head* is the most recently used entry, the *tail* the least recently used.
/// Keys must be below `u32::MAX - 1` (a 64 TiB device at 16 KiB pages). Equality
/// compares capacity and recency order, not how far the key table happened to grow.
///
/// # Example
///
/// ```
/// use vflash_ftl::Lpn;
/// use vflash_ppb::LruList;
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
    links: Vec<Link>,
    head: u32,
    tail: u32,
    len: usize,
    capacity: usize,
}

impl PartialEq for LruList {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.iter().eq(other.iter())
    }
}

impl Eq for LruList {}

impl LruList {
    /// Creates an empty list holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lru capacity must be positive");
        LruList { links: Vec::new(), head: NIL, tail: NIL, len: 0, capacity }
    }

    /// Sizes the key table for keys in `0..keys` up front, so inserting any of
    /// them never reallocates.
    pub fn reserve_keys(&mut self, keys: u64) {
        if keys as usize > self.links.len() {
            assert!(keys <= u64::from(ABSENT), "lru keys must be below u32::MAX - 1");
            self.links.resize(keys as usize, UNLINKED);
        }
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

    /// Whether `lpn` is on the list.
    pub fn contains(&self, lpn: Lpn) -> bool {
        self.links.get(lpn.as_usize()).is_some_and(|link| link.prev != ABSENT)
    }

    /// The least recently used entry, if any.
    pub fn least_recent(&self) -> Option<Lpn> {
        (self.tail != NIL).then_some(Lpn(u64::from(self.tail)))
    }

    /// The most recently used entry, if any.
    pub fn most_recent(&self) -> Option<Lpn> {
        (self.head != NIL).then_some(Lpn(u64::from(self.head)))
    }

    fn detach(&mut self, key: u32) {
        let Link { prev, next } = self.links[key as usize];
        if prev != NIL {
            self.links[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.links[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, key: u32) {
        self.links[key as usize] = Link { prev: NIL, next: self.head };
        if self.head != NIL {
            self.links[self.head as usize].prev = key;
        }
        self.head = key;
        if self.tail == NIL {
            self.tail = key;
        }
    }

    /// Moves `lpn` to the most-recently-used position. Returns `false` if it was not
    /// on the list.
    pub fn touch(&mut self, lpn: Lpn) -> bool {
        if !self.contains(lpn) {
            return false;
        }
        let key = lpn.0 as u32;
        if self.head != key {
            self.detach(key);
            self.attach_front(key);
        }
        true
    }

    /// Inserts `lpn` at the most-recently-used position (touching it if already
    /// present). If the list overflows, the least recently used entry is evicted and
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is not below `u32::MAX - 1`.
    pub fn insert(&mut self, lpn: Lpn) -> Option<Lpn> {
        if self.touch(lpn) {
            return None;
        }
        let evicted = if self.is_full() { self.pop_least_recent() } else { None };
        self.reserve_keys(lpn.0.saturating_add(1));
        self.attach_front(lpn.0 as u32);
        self.len += 1;
        evicted
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_least_recent(&mut self) -> Option<Lpn> {
        let lpn = self.least_recent()?;
        self.remove(lpn);
        Some(lpn)
    }

    /// Removes `lpn` from the list. Returns `true` if it was present.
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        if !self.contains(lpn) {
            return false;
        }
        self.detach(lpn.0 as u32);
        self.links[lpn.as_usize()] = UNLINKED;
        self.len -= 1;
        true
    }

    /// Iterates from most recently used to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        let listed = |key: u32| (key != NIL).then_some(key);
        std::iter::successors(listed(self.head), move |&key| listed(self.links[key as usize].next))
            .map(|key| Lpn(u64::from(key)))
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
