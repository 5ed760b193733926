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
//! The list comes in two parts: its order ([`LruOrder`]: head, tail, length and
//! capacity) and the table its links live in ([`LinkStore`]). [`LruList`] owns
//! both, at 8 bytes per key in `0..=highest key seen`; the table grows on demand
//! unless [`LruList::reserve_keys`] sized it up front. A caller with per-LPN state
//! of its own can keep the links inside it instead and hand the order a view of
//! that table on every call (PPB's hot and iron-hot lists share one record per
//! logical page with its cold table; the two-level LRU classifier's hot and
//! candidate lists share one table of its own).

use crate::types::Lpn;

/// One key's neighbours on its list: the key before it (more recently used) and
/// the key after it, or [`Link::NIL`] at either end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// The next more recently used key, or [`Link::NIL`] at the head.
    pub prev: u32,
    /// The next less recently used key, or [`Link::NIL`] at the tail.
    pub next: u32,
}

impl Link {
    /// End-of-list marker in a link and in an [`LruOrder`]'s head and tail.
    pub const NIL: u32 = u32::MAX;
}

const NIL: u32 = Link::NIL;

/// Per-key link storage that an [`LruOrder`] threads its list through.
///
/// The store answers for one list: a key another list (or nothing) holds is not
/// on it. The order only ever sets links of keys it puts on the list and clears
/// links of keys it takes off.
pub trait LinkStore {
    /// `key`'s links, or `None` if `key` is not on this list.
    fn link(&self, key: u32) -> Option<Link>;

    /// Puts `key` on this list with `link`, or replaces its links.
    fn set_link(&mut self, key: u32, link: Link);

    /// Replaces the `prev` of `key`, which is on this list.
    fn set_prev(&mut self, key: u32, prev: u32);

    /// Replaces the `next` of `key`, which is on this list.
    fn set_next(&mut self, key: u32, next: u32);

    /// Takes `key` off this list.
    fn unlink(&mut self, key: u32);
}

/// The order of a fixed-capacity LRU list whose links live in a [`LinkStore`]
/// the caller passes to every call: head (most recently used), tail (least
/// recently used), length and capacity.
///
/// Keys are `u32`s; the store decides which keys it can hold. Every method that
/// reads or changes the list takes the same store the list was built in.
#[derive(Debug, Clone)]
pub struct LruOrder {
    head: u32,
    tail: u32,
    len: usize,
    capacity: usize,
}

impl LruOrder {
    /// Creates an empty order holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lru capacity must be positive");
        LruOrder { head: NIL, tail: NIL, len: 0, capacity }
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
        (self.tail != NIL).then_some(self.tail)
    }

    /// The most recently used key, if any.
    pub fn most_recent(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    fn detach(&mut self, links: &mut impl LinkStore, Link { prev, next }: Link) {
        if prev != NIL {
            links.set_next(prev, next);
        } else {
            self.head = next;
        }
        if next != NIL {
            links.set_prev(next, prev);
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, links: &mut impl LinkStore, key: u32) {
        links.set_link(key, Link { prev: NIL, next: self.head });
        if self.head != NIL {
            links.set_prev(self.head, key);
        }
        self.head = key;
        if self.tail == NIL {
            self.tail = key;
        }
    }

    /// Moves `key` to the most-recently-used position. Returns `false` if it was
    /// not on the list.
    pub fn touch(&mut self, links: &mut impl LinkStore, key: u32) -> bool {
        let Some(link) = links.link(key) else { return false };
        if self.head != key {
            self.detach(links, link);
            self.attach_front(links, key);
        }
        true
    }

    /// Inserts `key` at the most-recently-used position (touching it if already
    /// present). If the list overflows, the least recently used key is evicted and
    /// returned.
    pub fn insert(&mut self, links: &mut impl LinkStore, key: u32) -> Option<u32> {
        if self.touch(links, key) {
            return None;
        }
        let evicted = if self.is_full() { self.pop_least_recent(links) } else { None };
        self.attach_front(links, key);
        self.len += 1;
        evicted
    }

    /// Removes and returns the least recently used key.
    pub fn pop_least_recent(&mut self, links: &mut impl LinkStore) -> Option<u32> {
        let key = self.least_recent()?;
        self.remove(links, key);
        Some(key)
    }

    /// Removes `key` from the list. Returns `true` if it was present.
    pub fn remove(&mut self, links: &mut impl LinkStore, key: u32) -> bool {
        let Some(link) = links.link(key) else { return false };
        self.detach(links, link);
        links.unlink(key);
        self.len -= 1;
        true
    }

    /// Iterates from most recently used to least recently used.
    pub fn iter<'a, S: LinkStore>(&self, links: &'a S) -> impl Iterator<Item = u32> + 'a {
        let listed = |key: u32| (key != NIL).then_some(key);
        std::iter::successors(listed(self.head), move |&key| {
            links.link(key).and_then(|link| listed(link.next))
        })
    }
}

/// `prev` value of a key that is not on an owned list.
const ABSENT: u32 = u32::MAX - 1;

const UNLINKED: Link = Link { prev: ABSENT, next: NIL };

/// The link table an [`LruList`] owns: one [`Link`] per key, [`ABSENT`] for a
/// key off the list.
#[derive(Debug, Clone, Default)]
struct OwnedLinks(Vec<Link>);

impl LinkStore for OwnedLinks {
    #[inline]
    fn link(&self, key: u32) -> Option<Link> {
        self.0.get(key as usize).copied().filter(|link| link.prev != ABSENT)
    }

    #[inline]
    fn set_link(&mut self, key: u32, link: Link) {
        self.0[key as usize] = link;
    }

    #[inline]
    fn set_prev(&mut self, key: u32, prev: u32) {
        self.0[key as usize].prev = prev;
    }

    #[inline]
    fn set_next(&mut self, key: u32, next: u32) {
        self.0[key as usize].next = next;
    }

    #[inline]
    fn unlink(&mut self, key: u32) {
        self.0[key as usize] = UNLINKED;
    }
}

/// A fixed-capacity least-recently-used list of LPNs that owns its link table.
///
/// The *head* is the most recently used entry, the *tail* the least recently used.
/// Keys must be below `u32::MAX - 1` (a 64 TiB device at 16 KiB pages). Equality
/// compares capacity and recency order, not how far the key table happened to grow.
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
    links: OwnedLinks,
}

impl PartialEq for LruList {
    fn eq(&self, other: &Self) -> bool {
        self.capacity() == other.capacity() && self.iter().eq(other.iter())
    }
}

impl Eq for LruList {}

/// The key of `lpn` if an owned list can hold it; a larger LPN is on no list.
fn key_of(lpn: Lpn) -> Option<u32> {
    u32::try_from(lpn.0).ok().filter(|&key| key < ABSENT)
}

impl LruList {
    /// Creates an empty list holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LruList { order: LruOrder::new(capacity), links: OwnedLinks::default() }
    }

    /// Sizes the key table for keys in `0..keys` up front, so inserting any of
    /// them never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is above `u32::MAX - 1`.
    pub fn reserve_keys(&mut self, keys: u64) {
        if keys as usize > self.links.0.len() {
            assert!(keys <= u64::from(ABSENT), "lru keys must be below u32::MAX - 1");
            self.links.0.resize(keys as usize, UNLINKED);
        }
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
    pub fn contains(&self, lpn: Lpn) -> bool {
        key_of(lpn).is_some_and(|key| self.links.link(key).is_some())
    }

    /// The least recently used entry, if any.
    pub fn least_recent(&self) -> Option<Lpn> {
        self.order.least_recent().map(|key| Lpn(u64::from(key)))
    }

    /// The most recently used entry, if any.
    pub fn most_recent(&self) -> Option<Lpn> {
        self.order.most_recent().map(|key| Lpn(u64::from(key)))
    }

    /// Moves `lpn` to the most-recently-used position. Returns `false` if it was not
    /// on the list.
    pub fn touch(&mut self, lpn: Lpn) -> bool {
        key_of(lpn).is_some_and(|key| self.order.touch(&mut self.links, key))
    }

    /// Inserts `lpn` at the most-recently-used position (touching it if already
    /// present). If the list overflows, the least recently used entry is evicted and
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is not below `u32::MAX - 1`.
    pub fn insert(&mut self, lpn: Lpn) -> Option<Lpn> {
        self.reserve_keys(lpn.0.saturating_add(1));
        let evicted = self.order.insert(&mut self.links, lpn.0 as u32);
        evicted.map(|key| Lpn(u64::from(key)))
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_least_recent(&mut self) -> Option<Lpn> {
        self.order.pop_least_recent(&mut self.links).map(|key| Lpn(u64::from(key)))
    }

    /// Removes `lpn` from the list. Returns `true` if it was present.
    pub fn remove(&mut self, lpn: Lpn) -> bool {
        key_of(lpn).is_some_and(|key| self.order.remove(&mut self.links, key))
    }

    /// Iterates from most recently used to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.order.iter(&self.links).map(|key| Lpn(u64::from(key)))
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
    #[should_panic(expected = "below u32::MAX - 1")]
    fn inserting_past_the_key_range_panics() {
        let mut lru = LruList::new(2);
        lru.insert(Lpn(u64::from(ABSENT)));
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
